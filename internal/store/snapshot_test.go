package store

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// loadBoth writes ds as gzip-JSON (through the reference writer) and as a
// snapshot, and loads both back through Load's format sniffing, failing
// on any error.
func loadBoth(t *testing.T, ds *Dataset) (fromJSON, fromSnap *Dataset) {
	t.Helper()
	var sb bytes.Buffer
	if err := Save(&sb, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	var err error
	if fromJSON, err = Load(bytes.NewReader(referenceGzipJSON(t, ds))); err != nil {
		t.Fatalf("load json: %v", err)
	}
	if fromSnap, err = Load(&sb); err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	return fromJSON, fromSnap
}

// TestSnapshotMatchesJSONLoad: loading a snapshot must produce the exact
// in-memory dataset loading the gzip-JSON form produces, on a fixture that
// exercises overlays, cookies, storage, logs, and multi-value Set-Cookie.
func TestSnapshotMatchesJSONLoad(t *testing.T) {
	fromJSON, fromSnap := loadBoth(t, persistedDataset())
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		t.Fatalf("snapshot load differs from json load:\njson: %+v\nsnap: %+v", fromJSON, fromSnap)
	}
}

// TestSnapshotFlowEdgeCases drives the flow record encoder through its
// corners: the zero time, URLs the decomposed fast path must reject,
// multi-value headers, shared bodies, and an unattributed flow.
func TestSnapshotFlowEdgeCases(t *testing.T) {
	t0 := time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)
	mk := func(raw string) *proxy.Flow {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &proxy.Flow{
			Time: t0, Method: "GET", URL: u, StatusCode: 200,
			RequestHeaders:  http.Header{},
			ResponseHeaders: http.Header{"Content-Type": {"text/html"}},
		}
	}

	zeroTime := mk("http://a.example.de/px")
	zeroTime.Time = time.Time{}

	// %2F in the path forces RawPath on re-parse, so the four-field
	// reassembly is not byte-faithful and the encoder must fall back to
	// storing the full URL string.
	escaped := mk("http://a.example.de/a%2Fb?x=1")

	fragment := mk("http://a.example.de/page#top")

	multi := mk("https://b.example.de/app")
	multi.HTTPS = true
	multi.RequestHeaders.Add("Accept", "text/html")
	multi.RequestHeaders.Add("Accept", "image/gif")
	multi.ResponseHeaders.Add("Set-Cookie", "a=1; Path=/")
	multi.ResponseHeaders.Add("Set-Cookie", "b=2; Path=/")
	multi.ResponseBody = []byte("<html>shared</html>")

	shared := mk("https://b.example.de/app2")
	shared.ResponseBody = []byte("<html>shared</html>") // same blob as multi
	shared.RequestBody = []byte("post-data")
	shared.Channel, shared.ChannelID = "B", "sid-2"

	unattributed := mk("http://t.example.de/beacon")
	unattributed.StatusCode = 504
	unattributed.ResponseSize = 1 << 20

	flows := []*proxy.Flow{zeroTime, escaped, fragment, multi, shared, unattributed}
	for i, f := range flows {
		f.ID = int64(i + 1)
	}
	ds := &Dataset{Runs: []*RunData{{Name: RunRed, Date: t0, Flows: flows}}}

	fromJSON, fromSnap := loadBoth(t, ds)
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		for i := range fromJSON.Runs[0].Flows {
			a, b := fromJSON.Runs[0].Flows[i], fromSnap.Runs[0].Flows[i]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("flow %d differs:\njson: %#v\nsnap: %#v", i, a, b)
			}
		}
		t.Fatal("snapshot load differs from json load")
	}

	// The digest must not care which format the dataset came through.
	want, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromSnap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("snapshot-loaded digest %s != original %s", got, want)
	}
}

// TestSnapshotDecomposedURLs: the loader's per-string role masks stand in
// for plainURL, and a decomposed URL that fails them must still survive the
// url.Parse round trip. Two URLs the writer decomposes although they are
// not plain load back; four decomposed URLs no writer emits, made by
// editing one string-table entry of a plain URL, fail the load. Whether
// each URL round-trips is checked with url.Parse here.
func TestSnapshotDecomposedURLs(t *testing.T) {
	roundTrips := func(u *url.URL) bool {
		r, err := url.Parse(u.String())
		return err == nil && *r == *u
	}
	snapshotWith := func(raw string) ([]byte, *url.URL) {
		t.Helper()
		f := mkFlow(raw, "A", false)
		ds := &Dataset{Runs: []*RunData{{Name: RunRed, Flows: []*proxy.Flow{f}}}}
		var buf bytes.Buffer
		if err := Save(&buf, ds, FormatSnapshot); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), f.URL
	}

	for _, raw := range []string{"ftp://files.example.org/a?x=1", "http://[::1]:8080/a?x=1"} {
		snap, u := snapshotWith(raw)
		if plainURL(u) || !roundTrips(u) {
			t.Fatalf("%s: plain %v, round-trips %v; want false, true", raw, plainURL(u), roundTrips(u))
		}
		if bytes.Contains(snap, []byte(raw)) {
			t.Errorf("%s: stored whole, not decomposed", raw)
		}
		ds, err := Load(bytes.NewReader(snap))
		if err != nil {
			t.Errorf("%s: %v", raw, err)
			continue
		}
		if got := ds.Runs[0].Flows[0].URL; *got != *u {
			t.Errorf("%s: loads as %#v", raw, got)
		}
	}

	base, _ := snapshotWith("http://files.example.org/el?x=1&frag")
	for _, tc := range []struct {
		name     string
		old, new string // a string-table entry, length byte included
		url      url.URL
	}{
		{"scheme HTTP", "\x04http", "\x04HTTP", url.URL{Scheme: "HTTP", Host: "files.example.org", Path: "/el", RawQuery: "x=1&frag"}},
		{"fragment in query", "\x08x=1&frag", "\x08x=1#frag", url.URL{Scheme: "http", Host: "files.example.org", Path: "/el", RawQuery: "x=1#frag"}},
		{"space in host", "\x11files.example.org", "\x11files example.org", url.URL{Scheme: "http", Host: "files example.org", Path: "/el", RawQuery: "x=1&frag"}},
		{"relative path", "\x03/el", "\x03rel", url.URL{Scheme: "http", Host: "files.example.org", Path: "rel", RawQuery: "x=1&frag"}},
	} {
		if roundTrips(&tc.url) {
			t.Fatalf("%s: %#v round-trips", tc.name, tc.url)
		}
		edited := bytes.Replace(base, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(edited, base) {
			t.Fatalf("%s: no %q entry in the string table", tc.name, tc.old)
		}
		if _, err := Load(bytes.NewReader(edited)); err == nil || !strings.Contains(err.Error(), "cannot be stored decomposed") {
			t.Errorf("%s: load error %v, want a decomposed-URL rejection", tc.name, err)
		}
	}
}

// TestSnapshotRejectsCorruption: version, magic, and truncation must fail
// loudly, never panic or return a half-dataset.
func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, persistedDataset(), FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(strings.NewReader("HBnonsense")); err == nil {
		t.Error("bad magic accepted")
	}

	wrongVer := bytes.Clone(raw)
	wrongVer[4] = 99
	if _, err := Load(bytes.NewReader(wrongVer)); err == nil {
		t.Error("wrong version accepted")
	}

	// The five header bytes alone are a truncated snapshot — the end
	// marker is missing — and anything cut mid-section must fail too.
	if _, err := Load(bytes.NewReader(raw[:5])); err == nil {
		t.Error("header-only snapshot accepted despite missing end marker")
	}
	for _, cut := range []int{7, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	flipped := bytes.Clone(raw)
	flipped[6] ^= 0xff // inside the string table section header
	if _, err := Load(bytes.NewReader(flipped)); err == nil {
		t.Log("section-header flip still decoded (length happened to stay plausible)")
	}
}

// TestSnapshotSkipsUnknownSection: a snapshot carrying a section tag this
// reader does not know must still load — the length prefix makes unknown
// sections skippable, which is the format's forward-compatibility story.
// A newer writer, like every writer, puts the end marker last.
func TestSnapshotSkipsUnknownSection(t *testing.T) {
	ds := persistedDataset()
	var buf bytes.Buffer
	if err := Save(&buf, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	end := []byte{secEnd, 0} // the end marker's tag and empty length
	if !bytes.HasSuffix(raw, end) {
		t.Fatalf("snapshot does not end with the end marker: % x", raw[len(raw)-2:])
	}
	// Insert an unknown section before the end marker: tag 200, 3-byte
	// payload.
	raw = append(raw[:len(raw)-len(end):len(raw)-len(end)], 200, 3, 0xde, 0xad, 0xbf)
	raw = append(raw, end...)
	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("unknown section broke the load: %v", err)
	}
	if len(got.Runs) != len(ds.Runs) {
		t.Fatalf("got %d runs, want %d", len(got.Runs), len(ds.Runs))
	}
}

// farFutureDataset carries times UnixNano cannot hold: the far-future
// Expires sentinel servers send (Fri, 31 Dec 9999 23:59:59 GMT), which the
// TV's jar stores verbatim, a non-zero year-1 expiry, and a year-9999 flow.
func farFutureDataset() *Dataset {
	ds := persistedDataset()
	r := ds.Runs[0]
	far := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	r.Cookies[0].Expires = far
	early := r.Cookies[0]
	early.Name, early.Expires = "early", time.Date(1, 1, 1, 0, 0, 1, 500, time.UTC)
	r.Cookies = append(r.Cookies, early)
	r.Flows[0].Time = far
	return ds
}

// TestSnapshotTimesOutsideUnixNano: times before 1678 or after 2262 survive
// both formats and the checkpoint container exactly.
func TestSnapshotTimesOutsideUnixNano(t *testing.T) {
	ds := farFutureDataset()
	want := ds.Runs[0]
	check := func(label string, got *RunData) {
		t.Helper()
		for i, c := range want.Cookies {
			if !got.Cookies[i].Expires.Equal(c.Expires) {
				t.Errorf("%s: cookie %s expires %v, want %v", label, c.Name, got.Cookies[i].Expires, c.Expires)
			}
		}
		if !got.Flows[0].Time.Equal(want.Flows[0].Time) {
			t.Errorf("%s: flow time %v, want %v", label, got.Flows[0].Time, want.Flows[0].Time)
		}
	}
	fromJSON, fromSnap := loadBoth(t, ds)
	check("json", fromJSON.Runs[0])
	check("snapshot", fromSnap.Runs[0])
	if mustDigest(t, fromJSON) != mustDigest(t, ds) || mustDigest(t, fromSnap) != mustDigest(t, ds) {
		t.Error("reloaded dataset changed the digest")
	}

	cp := sampleCheckpoint()
	cp.Cells = cp.Cells[1:] // the RunRed cell
	cp.Cells[0].Data = want
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint", got.Cells[0].Data)
}

// TestSnapshotSharedHeaderMaps: the writer encodes each header map once
// per role and reuses its block ID for every later flow holding the same
// map. Sharing must be invisible in the output: a dataset whose flows share
// header maps and a copy in which every flow holds its own clone give the
// same snapshot bytes and digest, and load back equal. The fixture covers a
// nil and an empty map, two distinct maps with equal content, and one map
// (with Set-Cookie entries) serving as one flow's request header and
// another's response header — a response block also carries the
// Set-Cookie list, so the two roles must not share one identity record.
func TestSnapshotSharedHeaderMaps(t *testing.T) {
	ua := http.Header{"User-Agent": {"HbbTV/1.5.1"}, "Accept": {"text/html", "image/gif"}}
	gif := http.Header{"Content-Type": {"image/gif"}}
	both := http.Header{"Content-Type": {"text/html"}, "Set-Cookie": {"uid=1; Path=/", "sess=2"}}
	empty := http.Header{}
	headers := [][2]http.Header{
		{ua, gif},
		{ua, gif},
		{both, gif},       // both first seen as a request block...
		{ua, both},        // ...then as a response block
		{nil, empty},      // nil request, empty response
		{empty, empty},    // the empty map in both roles
		{ua.Clone(), gif}, // a distinct map equal to ua
		{both, both},
		{nil, nil},
	}
	build := func(clone bool) *Dataset {
		flows := make([]*proxy.Flow, len(headers))
		for i, h := range headers {
			f := mkFlow(fmt.Sprintf("http://t%d.example.de/px", i%3), "A", false)
			f.ID = int64(i + 1)
			f.RequestHeaders, f.ResponseHeaders = h[0], h[1]
			if clone {
				f.RequestHeaders, f.ResponseHeaders = h[0].Clone(), h[1].Clone()
			}
			flows[i] = f
		}
		return &Dataset{Runs: []*RunData{
			{Name: RunRed, Flows: flows[:5]},
			{Name: RunBlue, Flows: flows[5:]},
		}}
	}
	shared, cloned := build(false), build(true)

	save := func(ds *Dataset) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := Save(&buf, ds, FormatSnapshot); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sharedBytes, clonedBytes := save(shared), save(cloned)
	if !bytes.Equal(sharedBytes, clonedBytes) {
		t.Fatal("shared header maps change the snapshot bytes")
	}
	sharedDigest, err := shared.Digest()
	if err != nil {
		t.Fatal(err)
	}
	clonedDigest, err := cloned.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if sharedDigest != clonedDigest {
		t.Fatalf("shared header maps change the digest: %s != %s", sharedDigest, clonedDigest)
	}

	sharedLoaded, err := Load(bytes.NewReader(sharedBytes))
	if err != nil {
		t.Fatal(err)
	}
	clonedLoaded, err := Load(bytes.NewReader(clonedBytes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharedLoaded, clonedLoaded) {
		t.Fatal("shared and cloned datasets load back different")
	}
	for i, f := range slices.Concat(sharedLoaded.Runs[0].Flows, sharedLoaded.Runs[1].Flows) {
		if f.RequestHeaders.Get("User-Agent") != headers[i][0].Get("User-Agent") ||
			!reflect.DeepEqual(f.ResponseHeaders.Values("Set-Cookie"), headers[i][1].Values("Set-Cookie")) ||
			f.ContentType() != (&proxy.Flow{ResponseHeaders: headers[i][1]}).ContentType() {
			t.Errorf("flow %d loads back with other headers: %v / %v", i, f.RequestHeaders, f.ResponseHeaders)
		}
	}
	// A re-save of the loaded dataset, whose flows share the decoder's
	// maps, still writes the same bytes.
	if !bytes.Equal(save(sharedLoaded), sharedBytes) {
		t.Error("re-saving the loaded dataset changes the snapshot bytes")
	}
}
