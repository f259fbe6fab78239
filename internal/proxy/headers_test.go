package proxy

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// mapID is a header map's identity: two flows share a map exactly when
// their IDs are equal.
func mapID(h http.Header) uintptr { return reflect.ValueOf(h).Pointer() }

// send sends one GET with the given request header straight through
// rec.RoundTrip and returns the request and the response, still open.
func send(t testing.TB, rec *Recorder, rawURL string, hdr http.Header) (*http.Request, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = hdr
	resp, err := rec.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return req, resp
}

// get sends like send, then drains and closes the response.
func get(t testing.TB, rec *Recorder, rawURL string, hdr http.Header) {
	t.Helper()
	_, resp := send(t, rec, rawURL, hdr)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestRecorderSharesHeaderBlocks: flows recorded through one Recorder with
// the same header block point at one map, flows with different blocks at
// different maps, and the table outlives Reset.
func TestRecorderSharesHeaderBlocks(t *testing.T) {
	rec, _ := newTestRecorder()
	ua := http.Header{"User-Agent": {"HbbTV/1.5.1 (+DRM; LGE; 43UM7000)"}}
	withRef := http.Header{"User-Agent": ua["User-Agent"], "Referer": {"http://hbbtv.ard.de/index.html"}}

	get(t, rec, "http://tvping.com/a", ua.Clone())
	get(t, rec, "http://tvping.com/b", ua.Clone())
	get(t, rec, "http://tvping.com/c", withRef.Clone())
	get(t, rec, "http://hbbtv.ard.de/index.html", ua.Clone())
	f := rec.Flows()

	if mapID(f[0].RequestHeaders) != mapID(f[1].RequestHeaders) || mapID(f[0].RequestHeaders) != mapID(f[3].RequestHeaders) {
		t.Error("identical request blocks do not share one map")
	}
	if mapID(f[0].RequestHeaders) == mapID(f[2].RequestHeaders) {
		t.Error("different request blocks share a map")
	}
	if mapID(f[0].ResponseHeaders) != mapID(f[1].ResponseHeaders) || mapID(f[0].ResponseHeaders) != mapID(f[2].ResponseHeaders) {
		t.Error("identical response blocks do not share one map")
	}
	if mapID(f[0].ResponseHeaders) == mapID(f[3].ResponseHeaders) {
		t.Error("different response blocks share a map")
	}
	if !reflect.DeepEqual(f[2].RequestHeaders, withRef) || !reflect.DeepEqual(f[0].RequestHeaders, ua) {
		t.Errorf("shared request blocks changed content: %v, %v", f[0].RequestHeaders, f[2].RequestHeaders)
	}

	rec.Reset()
	get(t, rec, "http://tvping.com/d", ua.Clone())
	if g := rec.Flows()[0]; mapID(g.RequestHeaders) != mapID(f[0].RequestHeaders) || mapID(g.ResponseHeaders) != mapID(f[0].ResponseHeaders) {
		t.Error("a block recorded after Reset does not share the map recorded before it")
	}
}

// TestRecorderHeadersDetachedFromCaller: the recorded flow never holds the
// caller's request header or the returned response header, so writing to
// either after RoundTrip leaves every recorded flow unchanged.
func TestRecorderHeadersDetachedFromCaller(t *testing.T) {
	rec, _ := newTestRecorder()
	ua := http.Header{"User-Agent": {"HbbTV/1.5.1"}}
	get(t, rec, "http://hbbtv.ard.de/index.html", ua.Clone())
	req, resp := send(t, rec, "http://hbbtv.ard.de/index.html", ua.Clone())
	_, _ = io.Copy(io.Discard, resp.Body)

	flows := rec.Flows()
	last := flows[len(flows)-1]
	if mapID(last.RequestHeaders) == mapID(req.Header) {
		t.Error("flow holds the caller's request header")
	}
	if mapID(last.ResponseHeaders) == mapID(resp.Header) {
		t.Error("flow holds the returned response header")
	}

	want := make([][2]http.Header, len(flows))
	for i, f := range flows {
		want[i] = [2]http.Header{f.RequestHeaders.Clone(), f.ResponseHeaders.Clone()}
	}
	req.Header.Set("User-Agent", "rewritten")
	req.Header.Add("Cookie", "late=1")
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Del("Set-Cookie")
	for i, f := range flows {
		if !reflect.DeepEqual(f.RequestHeaders, want[i][0]) || !reflect.DeepEqual(f.ResponseHeaders, want[i][1]) {
			t.Errorf("flow %d changed after the caller wrote its headers: %v / %v", i, f.RequestHeaders, f.ResponseHeaders)
		}
	}
	// Closing the body clears the response's header map for reuse; that
	// reaches no flow either.
	resp.Body.Close()
	for i, f := range flows {
		if !reflect.DeepEqual(f.ResponseHeaders, want[i][1]) {
			t.Errorf("flow %d changed after the caller closed its response: %v", i, f.ResponseHeaders)
		}
	}
}

// TestRecorderConcurrentHeaderReads runs RoundTrips on one recorder from
// several goroutines, each writing its own request and response headers
// afterwards, while other goroutines read the headers of recorded flows.
// Under -race any write reaching a recorded (shared) map is a report.
func TestRecorderConcurrentHeaderReads(t *testing.T) {
	rec, _ := newTestRecorder()
	const senders, perSender = 4, 50
	var senderWG, readerWG sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, f := range rec.Flows() {
					_ = f.RequestHeaders.Get("User-Agent")
					for _, vs := range f.ResponseHeaders {
						_ = len(vs)
					}
				}
			}
		}()
	}
	for s := 0; s < senders; s++ {
		senderWG.Add(1)
		go func(s int) {
			defer senderWG.Done()
			for i := 0; i < perSender; i++ {
				host := []string{"tvping.com", "hbbtv.ard.de"}[(s+i)%2]
				req, _ := http.NewRequest(http.MethodGet, "http://"+host+"/x", nil)
				req.Header = http.Header{"User-Agent": {fmt.Sprintf("tv-%d", i%3)}}
				resp, err := rec.RoundTrip(req)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("User-Agent", "rewritten")
				resp.Header.Set("Content-Type", "rewritten")
				resp.Body.Close()
			}
		}(s)
	}
	senderWG.Wait()
	close(done)
	readerWG.Wait()

	flows := rec.Flows()
	if len(flows) != senders*perSender {
		t.Fatalf("recorded %d flows, want %d", len(flows), senders*perSender)
	}
	reqMaps := make(map[uintptr]bool)
	for _, f := range flows {
		if ua := f.RequestHeaders.Get("User-Agent"); ua == "rewritten" {
			t.Fatal("a caller's write reached a recorded request header")
		}
		if ct := f.ResponseHeaders.Get("Content-Type"); ct == "rewritten" {
			t.Fatal("a caller's write reached a recorded response header")
		}
		reqMaps[mapID(f.RequestHeaders)] = true
	}
	if len(reqMaps) != 3 {
		t.Errorf("%d distinct request maps for 3 distinct blocks", len(reqMaps))
	}
}

// TestRecorderHeaderHitAllocatesNothing pins the two hit paths: a block
// among the role's recent ones is matched in place, and a block the recent
// list has dropped costs a key build in recorder-owned scratch and a table
// lookup. Neither allocates.
func TestRecorderHeaderHitAllocatesNothing(t *testing.T) {
	rec, _ := newTestRecorder()
	h := http.Header{
		"User-Agent":      {"HbbTV/1.5.1 (+DRM; LGE; 43UM7000)"},
		"Referer":         {"http://hbbtv.ard.de/index.html"},
		"Accept":          {"image/gif", "image/png"},
		"Accept-Language": {"de-DE"},
		"Cookie":          {"uid=1; sess=2"},
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	first := rec.blockLocked(&rec.recentReq, h)
	allocs := testing.AllocsPerRun(100, func() {
		if rec.blockLocked(&rec.recentReq, h) != first {
			t.Fatal("a recent hit returned another block")
		}
	})
	if allocs != 0 {
		t.Errorf("recent-block hit allocates %.1f objects, want 0", allocs)
	}

	// One block more than the recent list holds, looked up in turn: each
	// lookup finds its block dropped from the list, so goes to the table.
	cycle := []http.Header{h}
	for len(cycle) <= len(rec.recentReq) {
		c := h.Clone()
		c.Set("Cookie", fmt.Sprintf("uid=%d", len(cycle)))
		cycle = append(cycle, c)
	}
	blocks := make([]*headerBlock, len(cycle))
	for i, c := range cycle {
		blocks[i] = rec.blockLocked(&rec.recentReq, c)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for i, c := range cycle {
			if slices.Contains(rec.recentReq[:], blocks[i]) {
				t.Fatal("the cycle's next block is still recent")
			}
			if rec.blockLocked(&rec.recentReq, c) != blocks[i] {
				t.Fatal("a table hit returned another block")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("header table hit allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestAppendHeaderKey: equal blocks give equal keys whatever their map
// order, and blocks that differ only in how values are split or framed
// give different keys.
func TestAppendHeaderKey(t *testing.T) {
	key := func(h http.Header) string { return string(AppendHeaderKey(nil, h)) }
	a := http.Header{"A": {"1"}, "B": {"2", "3"}, "C": {""}}
	b := http.Header{"C": {""}, "B": {"2", "3"}, "A": {"1"}}
	if key(a) != key(b) {
		t.Error("equal blocks give different keys")
	}
	distinct := []http.Header{
		nil,
		{"A": {"1"}},
		{"A": {"1", ""}},
		{"A": {"1\n"}},
		{"A": {"1"}, "B": {}},
		{"A1": {}},
		{"A": {"1", "2"}},
		{"A": {"12"}},
		{"A": {"1"}, "B": {"2"}},
		{"A": {"1\x00B", "2"}},
	}
	seen := make(map[string]int)
	for i, h := range distinct {
		k := key(h)
		if j, ok := seen[k]; ok {
			t.Errorf("blocks %d (%v) and %d (%v) share a key", j, distinct[j], i, h)
		}
		seen[k] = i
	}
	if got := AppendHeaderKey([]byte("prefix"), a); string(got[:6]) != "prefix" || string(got[6:]) != key(a) {
		t.Error("AppendHeaderKey does not append to dst")
	}
}
