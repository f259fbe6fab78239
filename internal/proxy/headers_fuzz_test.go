package proxy

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
)

// The fuzz alphabet: header names, one of them a non-canonical spelling of
// another; value lists that split a text across entries next to the same
// text joined, with nil next to empty lists; and Content-Types that vary in
// case and parameters.
var (
	fuzzNames = []string{"User-Agent", "user-agent", "Referer", "Cookie", "Accept", "Set-Cookie"}
	fuzzLists = [][]string{
		nil, {}, {""}, {"a"}, {"a", "b"}, {"ab"}, {"a, b"}, {"b", "a"},
	}
	fuzzTypes = []string{
		"text/html", "Text/HTML; charset=UTF-8", "text/html; charset=utf-8",
		"image/gif", "IMAGE/GIF", "application/json", "application/octet-stream",
		"application/vnd.hbbtv.xhtml+xml; q=1", "",
	}
)

// cannedTransport answers every request with its header map and a fixed
// body, read whole by the recorder. The test edits the map between sends,
// as the virtual network reuses a response's map once it is closed.
type cannedTransport struct{ header http.Header }

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     c.header,
		Body:       io.NopCloser(strings.NewReader("<p>body</p>")),
		Request:    req,
	}, nil
}

// FuzzRecorderHeaderBlocks decodes its input into a sequence of header
// edits and sends, and sends the sequence through one Recorder, rewriting
// one reused request map (and one reused response map) between sends as the
// TV does. It checks every flow against a reference table keyed by
// AppendHeaderKey: the same key gives the same shared map in either role
// and different keys give different maps; each recorded map has its input's
// key, also after every later edit of the inputs; and the response body is
// kept exactly when isTextual holds for the response's Content-Type.
//
// Each input pair of bytes is one step, up to 128 steps. The first byte's
// low two bits pick the step: 0 sets a request entry and 1 a response
// entry (the second byte picks the name, or Content-Type on a response,
// and the value list), 2 deletes the entry the second byte names from the
// request or the response map, and 3 sends, with a nil request or response
// map when the second byte's low bits say so.
func FuzzRecorderHeaderBlocks(f *testing.F) {
	f.Add([]byte{0, 3, 3, 0, 3, 0})
	f.Add([]byte{0, 0x20, 3, 0, 0, 0x28, 3, 0, 1, 0x06, 3, 0})
	f.Add([]byte{0, 0x03, 1, 0x0c, 3, 0, 0, 0x01, 3, 0, 2, 0x01, 3, 0, 3, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 128 steps are many more than the four recent blocks per role
		// need. Longer inputs only slow every run, and the engine's
		// minimizing of a new input stalled the fuzzer for seconds.
		if len(data) > 256 {
			return
		}
		canned := &cannedTransport{header: http.Header{}}
		rec := NewRecorder(canned, clock.NewVirtual(time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)))
		reqHdr := http.Header{}
		u, _ := url.Parse("http://tvping.com/p")

		// sent is each send's input keys; a nil input has no key.
		type sentKeys struct{ req, resp *string }
		var sent []sentKeys
		var contentTypes []string
		keyOf := func(h http.Header) *string {
			if h == nil {
				return nil
			}
			k := string(AppendHeaderKey(nil, h))
			return &k
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0], int(data[1])
			switch op % 4 {
			case 0:
				reqHdr[fuzzNames[arg%len(fuzzNames)]] = fuzzLists[arg/len(fuzzNames)%len(fuzzLists)]
			case 1:
				if arg%(len(fuzzNames)+1) == len(fuzzNames) {
					canned.header["Content-Type"] = []string{fuzzTypes[arg/(len(fuzzNames)+1)%len(fuzzTypes)]}
				} else {
					canned.header[fuzzNames[arg%(len(fuzzNames)+1)]] = fuzzLists[arg/(len(fuzzNames)+1)%len(fuzzLists)]
				}
			case 2:
				h := reqHdr
				if op&4 != 0 {
					h = canned.header
				}
				if name := arg % (len(fuzzNames) + 1); name == len(fuzzNames) {
					delete(h, "Content-Type")
				} else {
					delete(h, fuzzNames[name])
				}
			case 3:
				req := &http.Request{Method: http.MethodGet, URL: u, Header: reqHdr}
				respHdr := canned.header
				if arg&1 != 0 {
					req.Header = nil
				}
				if arg&2 != 0 {
					canned.header = nil
				}
				sent = append(sent, sentKeys{keyOf(req.Header), keyOf(canned.header)})
				contentTypes = append(contentTypes, canned.header.Get("Content-Type"))
				resp, err := rec.RoundTrip(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				canned.header = respHdr
			}
		}

		table := make(map[string]uintptr) // reference: key -> map
		owner := make(map[uintptr]string) // and back
		check := func(i int, role string, want *string, got http.Header) {
			if want == nil {
				if got != nil {
					t.Fatalf("flow %d: nil %s header recorded as %v", i, role, got)
				}
				return
			}
			if got == nil {
				t.Fatalf("flow %d: %s header recorded as nil", i, role)
			}
			if k := string(AppendHeaderKey(nil, got)); k != *want {
				t.Fatalf("flow %d: recorded %s header %v does not equal its input", i, role, got)
			}
			id := mapID(got)
			if prev, ok := table[*want]; ok && prev != id {
				t.Fatalf("flow %d: %s block %v recorded in a second map", i, role, got)
			}
			if k, ok := owner[id]; ok && k != *want {
				t.Fatalf("flow %d: %s header %v shares a map with another block", i, role, got)
			}
			table[*want], owner[id] = id, *want
		}
		flows := rec.Flows()
		if len(flows) != len(sent) {
			t.Fatalf("%d flows for %d sends", len(flows), len(sent))
		}
		for i, fl := range flows {
			check(i, "request", sent[i].req, fl.RequestHeaders)
			check(i, "response", sent[i].resp, fl.ResponseHeaders)
			if kept := fl.ResponseBody != nil; kept != isTextual(contentTypes[i]) {
				t.Fatalf("flow %d: body kept %v for Content-Type %q", i, kept, contentTypes[i])
			}
		}
	})
}
