package store

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// mkCookieFlow is mkFlow plus a Set-Cookie response header.
func mkCookieFlow(rawURL, channel, setCookie string) *proxy.Flow {
	f := mkFlow(rawURL, channel, false)
	f.ResponseHeaders = http.Header{
		"Content-Type": []string{"text/html"},
		"Set-Cookie":   []string{setCookie},
	}
	f.ResponseSize = 2048
	return f
}

// indexDataset exercises every aggregate: mixed schemes, an unattributed
// flow, cookies from first and third parties, and a "tracker" host whose
// flows the test classifier flags.
func indexDataset() *Dataset {
	ds := sampleDataset()
	run := ds.Runs[0]
	run.Flows = append(run.Flows,
		mkCookieFlow("http://tracker.example/c", "KiKA", "uid=abc123"),
		mkCookieFlow("http://a.de/first", "KiKA", "sess=1"),
		mkCookieFlow("http://tracker.example/u", "", "ghost=1"), // unattributed
	)
	return ds
}

// testIndexConfig flags every flow on host tracker.example as a tracking
// request (Pi-hole bit) and as a known tracker for first-party candidacy.
func testIndexConfig(parallelism int) IndexConfig {
	return IndexConfig{
		ClassifyURL: func(url string) FlowKind {
			if strings.Contains(url, "tracker.example") {
				return FlowOnPiHole
			}
			return 0
		},
		KnownTrackerMask: FlowOnPiHole,
		Parallelism:      parallelism,
	}
}

func TestBuildIndexAggregates(t *testing.T) {
	ds := indexDataset()
	ix, err := BuildIndex(context.Background(), ds, testIndexConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.FlowCount(); got != 8 {
		t.Fatalf("FlowCount = %d, want 8", got)
	}
	if !reflect.DeepEqual(ix.Channels, ds.ChannelNames()) {
		t.Errorf("Channels %v != ChannelNames %v", ix.Channels, ds.ChannelNames())
	}
	r0 := ix.Runs[0]
	if r0.PlainRequests != 6 || r0.HTTPSRequests != 1 {
		t.Errorf("scheme split = %d/%d, want 6/1", r0.PlainRequests, r0.HTTPSRequests)
	}
	if r0.OnPiHole != 2 {
		t.Errorf("OnPiHole = %d, want 2 (tracker flows incl. unattributed)", r0.OnPiHole)
	}
	// Set-Cookie counting includes the unattributed flow…
	if r0.SetCookieFlows != 3 || r0.SetCookieTrackingFlows != 2 {
		t.Errorf("set-cookie flows = %d/%d, want 3/2", r0.SetCookieFlows, r0.SetCookieTrackingFlows)
	}
	// …but SetEvents only cover attributed flows.
	if len(r0.SetEvents) != 2 {
		t.Fatalf("SetEvents = %d, want 2", len(r0.SetEvents))
	}
	// First party of KiKA is a.de (tracker.example is masked out even
	// though its flows exist); so the tracker cookie is third-party and
	// the a.de cookie first-party.
	if fp := ix.FirstParty["KiKA"]; fp != "a.de" {
		t.Errorf("FirstParty[KiKA] = %q, want a.de", fp)
	}
	var tp, fpc int
	for _, e := range ix.SetEvents {
		if e.ThirdParty {
			tp++
		} else {
			fpc++
		}
	}
	if tp != 1 || fpc != 1 {
		t.Errorf("third/first cookie events = %d/%d, want 1/1", tp, fpc)
	}
	// Tracking aggregates: only the attributed tracker flow counts.
	cs := ix.PerChannelTracking["KiKA"]
	if cs == nil || cs.TrackingRequests != 1 || cs.TrackerCount() != 1 {
		t.Errorf("PerChannelTracking[KiKA] = %+v, want 1 request / 1 tracker", cs)
	}
	if got := ix.Runs[0].TrackingByChannel["KiKA"]; got != 1 {
		t.Errorf("TrackingByChannel[KiKA] = %d, want 1", got)
	}
	// Per-row lookups: row 0 is the first flow of the first run.
	cols := ix.Columns()
	f := ds.Runs[0].Flows[0]
	if cols.URL(0) != f.URL.String() || cols.Host(0) != f.Host() {
		t.Error("row 0 URL/Host mismatch")
	}
	if cols.Party(0) != "a.de" {
		t.Errorf("Party(0) = %q, want a.de", cols.Party(0))
	}
	if cols.Kind[0].Tracking() {
		t.Error("a.de flow should not be tracking")
	}
	if cols.RunName(cols.Rows()-1) != RunRed {
		t.Errorf("last row's run = %q, want %q", cols.RunName(cols.Rows()-1), RunRed)
	}
}

// TestBuildIndexDeterministicAcrossParallelism: the assembled index must
// be identical for every worker count.
func TestBuildIndexDeterministicAcrossParallelism(t *testing.T) {
	ds := indexDataset()
	base, err := BuildIndex(context.Background(), ds, testIndexConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8} {
		ix, err := BuildIndex(context.Background(), ds, testIndexConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Runs, ix.Runs) {
			t.Errorf("Runs differ at Parallelism=%d", n)
		}
		if !reflect.DeepEqual(base.SetEvents, ix.SetEvents) {
			t.Errorf("SetEvents differ at Parallelism=%d", n)
		}
		if !reflect.DeepEqual(base.FirstParty, ix.FirstParty) {
			t.Errorf("FirstParty differs at Parallelism=%d", n)
		}
		if !reflect.DeepEqual(base.Window, ix.Window) {
			t.Errorf("Window differs at Parallelism=%d", n)
		}
	}
}

func TestBuildIndexCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildIndex(ctx, indexDataset(), testIndexConfig(4)); err == nil {
		t.Fatal("expected context error")
	}
}

func TestBuildIndexEmptyDataset(t *testing.T) {
	ix, err := BuildIndex(context.Background(), &Dataset{}, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.FlowCount() != 0 {
		t.Fatal("expected empty index")
	}
	// Flow-less datasets fall back to the paper's measurement period.
	if ix.Window.Start.IsZero() || !ix.Window.End.After(ix.Window.Start) {
		t.Errorf("fallback window not set: %+v", ix.Window)
	}
}

func TestFlowKindTracking(t *testing.T) {
	for _, k := range []FlowKind{FlowPixel, FlowFingerprint, FlowOnEasyList, FlowOnEasyPrivacy, FlowOnPiHole} {
		if !k.Tracking() {
			t.Errorf("kind %b should be tracking", k)
		}
	}
	for _, k := range []FlowKind{0, FlowOnPerflyst, FlowOnKamran} {
		if k.Tracking() {
			t.Errorf("kind %b should not be tracking (comparison lists are baselines)", k)
		}
	}
}

// TestIndexMemoKeys pins the keys of the chunk scan's memos. URL values
// that differ in a field but print the same string share one URL ID, as
// when every row's string was interned; values that print differently do
// not. A query sent with and without a request body is two payloads, and a
// payload that recurs in a later chunk keeps its ID. Each block of rows is
// repeated past the index chunk, so the stitch sees every key twice.
func TestIndexMemoKeys(t *testing.T) {
	plain, _ := url.Parse("http://a.de/x")
	rawPath := *plain
	rawPath.RawPath = "/x" // EscapedPath returns it: same string
	omitHost := *plain
	omitHost.OmitHost = true // ignored when the host is set: same string
	query, _ := url.Parse("http://a.de/x?v=1")
	secure, _ := url.Parse("https://a.de/x")
	withBody := func(u *url.URL, body string) *proxy.Flow {
		f := mkFlow("http://unused.example/", "KiKA", false)
		f.URL, f.RequestBody = u, []byte(body)
		return f
	}
	block := []*proxy.Flow{
		withBody(plain, ""), withBody(&rawPath, ""), withBody(&omitHost, ""),
		withBody(query, ""), withBody(secure, ""),
		withBody(query, "b=2"), withBody(plain, "b=2"),
	}
	var flows []*proxy.Flow
	for len(flows) < indexChunk {
		flows = append(flows, block...)
	}
	flows = append(flows, block...)
	ds := &Dataset{Runs: []*RunData{{Name: RunGeneral, Flows: flows}}}
	for _, par := range []int{1, 4} {
		ix, err := BuildIndex(context.Background(), ds, IndexConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		cols := ix.Columns()
		wantURLs := []string{"http://a.de/x", "http://a.de/x?v=1", "https://a.de/x"}
		if got := cols.URLs.All(); !reflect.DeepEqual(got, wantURLs) {
			t.Errorf("j=%d: URL table = %q, want %q", par, got, wantURLs)
		}
		wantPayloads := []Payload{{Query: "v=1"}, {Query: "v=1", Body: "b=2"}, {Body: "b=2"}}
		if !reflect.DeepEqual(cols.Payloads, wantPayloads) {
			t.Errorf("j=%d: payloads = %+v, want %+v", par, cols.Payloads, wantPayloads)
		}
		wantURLID := []int32{0, 0, 0, 1, 2, 1, 0}
		wantPayloadID := []int32{-1, -1, -1, 0, -1, 1, 2}
		for i := range flows {
			j := i % len(block)
			if cols.URLID[i] != wantURLID[j] || cols.PayloadID[i] != wantPayloadID[j] {
				t.Fatalf("j=%d: row %d: URL ID %d, payload ID %d; want %d, %d",
					par, i, cols.URLID[i], cols.PayloadID[i], wantURLID[j], wantPayloadID[j])
			}
			if cols.URL(i) != flows[i].URL.String() {
				t.Fatalf("j=%d: row %d: URL %q, want %q", par, i, cols.URL(i), flows[i].URL.String())
			}
		}
	}
}

// TestChannelInfoByID: the index resolves each channel's metadata once per
// channel ID, to the entry Dataset.ChannelInfo returns by name (the first
// run that lists the channel); channels only flows name resolve to nil.
func TestChannelInfoByID(t *testing.T) {
	ds := indexDataset()
	ds.Runs[0].Flows = append(ds.Runs[0].Flows, mkFlow("http://a.de/ghost", "Ghost", false))
	ix, err := BuildIndex(context.Background(), ds, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cols := ix.Columns()
	if cols.ChannelInfo(-1) != nil {
		t.Error("ChannelInfo(-1) is not nil")
	}
	for id, name := range cols.Channels.All() {
		if got, want := cols.ChannelInfo(int32(id)), ds.ChannelInfo(name); got != want {
			t.Errorf("channel %q: ChannelInfo = %p, Dataset.ChannelInfo = %p", name, got, want)
		}
	}
}

// TestIndexSetCookiesPerRow: the chunk scan parses each response-header
// map's Set-Cookie headers once, but the cookie cells belong to the row.
// One map is shared by rows on two channels and by an unattributed row:
// each attributed row gets its own cells, the unattributed row none (yet
// it has cookies). A distinct map with equal content parses the same.
func TestIndexSetCookiesPerRow(t *testing.T) {
	shared := http.Header{"Set-Cookie": {"uid=1; Path=/", "sess=2"}}
	rows := []struct {
		channel string
		h       http.Header
	}{
		{"KiKA", shared}, {"ZDF", shared}, {"", shared}, {"KiKA", shared.Clone()}, {"ZDF", shared},
	}
	var flows []*proxy.Flow
	for i, r := range rows {
		f := mkFlow("http://tracker.example/c", r.channel, false)
		f.ID = int64(i + 1)
		f.ResponseHeaders = r.h
		flows = append(flows, f)
	}
	ds := &Dataset{Runs: []*RunData{{Name: RunRed, Flows: flows}}}
	ix, err := BuildIndex(context.Background(), ds, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cols := ix.Columns()
	var want []CookieSetEvent
	for i, r := range rows {
		n := cols.CookieOff[i+1] - cols.CookieOff[i]
		if r.channel == "" && n != 0 || r.channel != "" && n != 2 {
			t.Errorf("row %d (channel %q): %d cookie cells", i, r.channel, n)
		}
		if !cols.HasCookies[i] {
			t.Errorf("row %d: HasCookies false", i)
		}
		if r.channel != "" {
			for _, kv := range [][2]string{{"uid", "1"}, {"sess", "2"}} {
				want = append(want, CookieSetEvent{
					Run: RunRed, Channel: r.channel, Party: "tracker.example", Host: "tracker.example",
					Name: kv[0], Value: kv[1],
				})
			}
		}
	}
	if !reflect.DeepEqual(ix.SetEvents, want) {
		t.Errorf("set events:\n got %+v\nwant %+v", ix.SetEvents, want)
	}
}
