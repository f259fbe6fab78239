package hostnet

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// bodyBytes is the in-memory body's fast path, as the TV reads it.
func bodyBytes(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	bb, ok := resp.Body.(interface{ BodyBytes() []byte })
	if !ok {
		t.Fatalf("body %T has no BodyBytes", resp.Body)
	}
	return bb.BodyBytes()
}

// TestTransportConcurrentResponsesIndependent runs round trips on one
// Transport from several goroutines, half of them through a recorder, and
// keeps every response open. However many round trips ran after it, each
// open response holds the header map and body its own handler call wrote,
// although the writer it was lent is pooled, and no two open responses
// share a map or a body array. Writing to every response's header map,
// and to the body of every response no recorder saw, then changes no
// recorded flow. make chaos runs it under -race with -count=10 to shake
// the pool.
func TestTransportConcurrentResponsesIndependent(t *testing.T) {
	in := New()
	in.HandleFunc("echo.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Path", r.URL.Path)
		_, _ = io.WriteString(w, "body of "+r.URL.Path)
	})
	tr := &Transport{Net: in}
	rec := proxy.NewRecorder(tr, clock.NewVirtual(time.Date(2023, 8, 21, 10, 0, 0, 0, time.UTC)))
	const senders, perSender = 4, 50
	resps := make([][]*http.Response, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var rt http.RoundTripper = tr
			if s%2 == 1 {
				rt = rec
			}
			for i := 0; i < perSender; i++ {
				req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("http://echo.de/%d/%d", s, i), nil)
				resp, err := rt.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				resps[s] = append(resps[s], resp)
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	maps := make(map[uintptr]bool)
	bodies := make(map[*byte]bool)
	for s := range resps {
		for i, resp := range resps[s] {
			path := fmt.Sprintf("/%d/%d", s, i)
			body := bodyBytes(t, resp)
			if got := resp.Header.Get("X-Path"); got != path || string(body) != "body of "+path {
				t.Fatalf("response for %s holds header %q and body %q", path, got, body)
			}
			maps[reflect.ValueOf(resp.Header).Pointer()] = true
			bodies[&body[0]] = true
		}
	}
	if n := senders * perSender; len(maps) != n || len(bodies) != n {
		t.Fatalf("%d responses share %d header maps and %d body arrays", n, len(maps), len(bodies))
	}

	flows := rec.Flows()
	if len(flows) != senders/2*perSender {
		t.Fatalf("recorded %d flows, want %d", len(flows), senders/2*perSender)
	}
	for s := range resps {
		for _, resp := range resps[s] {
			resp.Header.Set("X-Path", "rewritten")
			resp.Header.Del("Content-Type")
			if s%2 == 0 {
				copy(bodyBytes(t, resp), "rewritten")
			}
		}
	}
	for _, f := range flows {
		path := f.URL.Path
		if got := f.ResponseHeaders.Get("X-Path"); got != path || f.ResponseHeaders.Get("Content-Type") != "text/plain" {
			t.Errorf("flow %s: a write to a response reached its headers %v", path, f.ResponseHeaders)
		}
		if string(f.ResponseBody) != "body of "+path {
			t.Errorf("flow %s: body %q", path, f.ResponseBody)
		}
	}
}

// TestTransportConcurrentResponsesRecycled is the closing counterpart of
// TestTransportConcurrentResponsesIndependent: each goroutine checks every
// response it gets against its own request, then closes it, so writers go
// back to the pool and are lent again across goroutines. Every response
// reads its own header and body until its Close and is detached after it,
// and every recorded flow keeps the header and body its handler wrote.
// make chaos runs it under -race with -count=10.
func TestTransportConcurrentResponsesRecycled(t *testing.T) {
	in := New()
	in.HandleFunc("echo.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Path", r.URL.Path)
		for i := 0; i < 20; i++ {
			_, _ = io.WriteString(w, "body of "+r.URL.Path+";")
		}
	})
	want := func(path string) string { return strings.Repeat("body of "+path+";", 20) }
	tr := &Transport{Net: in}
	rec := proxy.NewRecorder(tr, clock.NewVirtual(time.Date(2023, 8, 21, 10, 0, 0, 0, time.UTC)))
	const senders, perSender = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var rt http.RoundTripper = tr
			if s%2 == 1 {
				rt = rec
			}
			for i := 0; i < perSender; i++ {
				path := fmt.Sprintf("/%d/%d", s, i)
				req, _ := http.NewRequest(http.MethodGet, "http://echo.de"+path, nil)
				resp, err := rt.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				if got := resp.Header.Get("X-Path"); got != path || err != nil || string(body) != want(path) {
					t.Errorf("response for %s holds header %q and body %q (%v)", path, got, body, err)
				}
				resp.Body.Close()
				if resp.Header != nil {
					t.Errorf("response for %s keeps its header after Close", path)
				}
			}
		}(s)
	}
	wg.Wait()

	flows := rec.Flows()
	if len(flows) != senders/2*perSender {
		t.Fatalf("recorded %d flows, want %d", len(flows), senders/2*perSender)
	}
	for _, f := range flows {
		path := f.URL.Path
		if got := f.ResponseHeaders.Get("X-Path"); got != path || f.ResponseHeaders.Get("Content-Type") != "text/plain" {
			t.Errorf("flow %s: headers %v", path, f.ResponseHeaders)
		}
		if string(f.ResponseBody) != want(path) {
			t.Errorf("flow %s: body %q", path, f.ResponseBody)
		}
	}
}
