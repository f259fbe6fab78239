package tracking

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

var t0 = time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)

func mkFlow(rawURL, channel string, at time.Time, status int, ctype string, size int64, body string) *proxy.Flow {
	u, _ := url.Parse(rawURL)
	return &proxy.Flow{
		Time: at, Method: http.MethodGet, URL: u, StatusCode: status,
		Channel:         channel,
		RequestHeaders:  http.Header{},
		ResponseHeaders: http.Header{"Content-Type": []string{ctype}},
		ResponseSize:    size,
		ResponseBody:    []byte(body),
	}
}

func TestIsTrackingPixel(t *testing.T) {
	tests := []struct {
		name string
		f    *proxy.Flow
		want bool
	}{
		{"tiny gif", mkFlow("http://t.com/px", "C", t0, 200, "image/gif", 35, ""), true},
		{"44 bytes", mkFlow("http://t.com/px", "C", t0, 200, "image/png", 44, ""), true},
		{"45 bytes", mkFlow("http://t.com/px", "C", t0, 200, "image/gif", 45, ""), false},
		{"big image", mkFlow("http://t.com/logo", "C", t0, 200, "image/png", 4096, ""), false},
		{"tiny text", mkFlow("http://t.com/x", "C", t0, 200, "text/plain", 10, "ok"), false},
		{"404 image", mkFlow("http://t.com/px", "C", t0, 404, "image/gif", 35, ""), false},
	}
	for _, tt := range tests {
		if got := flowKind(tt.f)&store.FlowPixel != 0; got != tt.want {
			t.Errorf("%s: pixel = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestIsFingerprintScript(t *testing.T) {
	fpBody := "var c=document.createElement('canvas');c.toDataURL();"
	tests := []struct {
		name string
		f    *proxy.Flow
		want bool
	}{
		{"canvas js", mkFlow("http://f.com/fp.js", "C", t0, 200, "application/javascript", 100, fpBody), true},
		{"fp2 lib", mkFlow("http://f.com/x.js", "C", t0, 200, "text/javascript", 100, "/* Fingerprint2 */"), true},
		{"plain js", mkFlow("http://f.com/app.js", "C", t0, 200, "application/javascript", 50, "console.log(1)"), false},
		{"fp text in html", mkFlow("http://f.com/p", "C", t0, 200, "text/html", 100, fpBody), false},
		{"empty body", mkFlow("http://f.com/fp.js", "C", t0, 200, "application/javascript", 100, ""), false},
	}
	for _, tt := range tests {
		if got := flowKind(tt.f)&store.FlowFingerprint != 0; got != tt.want {
			t.Errorf("%s: fingerprint = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// buildIndex indexes runs with the classifier the analysis engine uses.
func buildIndex(t *testing.T, runs ...*store.RunData) *store.Index {
	t.Helper()
	ix, err := store.BuildIndex(context.Background(), &store.Dataset{Runs: runs}, NewClassifier().IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestFirstPartyIdentification(t *testing.T) {
	// The earliest request goes to a known tracker (encoded into the
	// signal); the corrected rule must skip it.
	run := &store.RunData{Name: store.RunGeneral, Flows: []*proxy.Flow{
		mkFlow("http://doubleclick.net/ad?id=1", "MTV", t0, 200, "image/gif", 35, ""),
		mkFlow("http://hbbtv.mtv.de/index.html", "MTV", t0.Add(time.Second), 200, "text/html", 500, "<html>"),
		mkFlow("http://tvping.com/t", "MTV", t0.Add(2*time.Second), 200, "image/gif", 35, ""),
	}}
	if got := buildIndex(t, run).FirstParty["MTV"]; got != "mtv.de" {
		t.Errorf("corrected first party = %q, want mtv.de", got)
	}
	cfg := NewClassifier().IndexConfig()
	cfg.KnownTrackerMask = 0
	naive, err := store.BuildIndex(context.Background(), &store.Dataset{Runs: []*store.RunData{run}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.FirstParty["MTV"]; got != "doubleclick.net" {
		t.Errorf("naive first party = %q, want doubleclick.net (the known failure)", got)
	}
}

func TestClassifierKinds(t *testing.T) {
	const listed = store.FlowOnEasyList | store.FlowOnEasyPrivacy | store.FlowOnPiHole
	px := mkFlow("http://tvping.com/t", "C", t0, 200, "image/gif", 35, "")
	ad := mkFlow("http://doubleclick.net/ad", "C", t0, 200, "text/html", 500, "x")
	benign := mkFlow("http://hbbtv.ard.de/index.html", "C", t0, 200, "text/html", 500, "<html>")
	kind := buildIndex(t, &store.RunData{Name: store.RunRed, Flows: []*proxy.Flow{px, ad, benign}}).Columns().Kind
	if k := kind[0]; k&store.FlowPixel == 0 || k&listed != 0 {
		t.Errorf("tvping pixel kind = %b", k)
	}
	if k := kind[1]; k&listed == 0 {
		t.Errorf("doubleclick kind = %b", k)
	}
	if kind[2].Tracking() {
		t.Error("app document classified as tracking")
	}
}

func TestListStats(t *testing.T) {
	run := &store.RunData{Name: store.RunRed, Flows: []*proxy.Flow{
		mkFlow("http://doubleclick.net/ad", "A", t0, 200, "text/html", 100, "x"),              // EL+PH
		mkFlow("http://google-analytics.com/collect", "A", t0, 200, "image/gif", 35, ""),      // EP+PH+pixel
		mkFlow("http://tvping.com/t", "A", t0, 200, "image/gif", 35, ""),                      // pixel only
		mkFlow("http://fp.de/fp.js", "A", t0, 200, "application/javascript", 80, "toDataURL"), // fingerprint
		mkFlow("http://hbbtv.a.de/i.html", "A", t0, 200, "text/html", 400, "<html>"),          // clean
	}}
	s := buildIndex(t, run).Runs[0]
	if s.OnEasyList != 1 || s.OnEasyPrivacy != 1 || s.OnPiHole != 2 {
		t.Errorf("list hits = %+v", s)
	}
	if s.TrackingPixels != 2 || s.FingerprintScripts != 1 {
		t.Errorf("heuristics = %+v", s)
	}
}

func TestPerChannelAndCategory(t *testing.T) {
	runs := []*store.RunData{{
		Name: store.RunGeneral,
		Channels: []store.ChannelInfo{
			{Name: "A", Categories: []dvb.ServiceCategory{dvb.CategoryGeneral}},
			{Name: "B", Categories: []dvb.ServiceCategory{dvb.CategoryChildren}},
			{Name: "C", Categories: []dvb.ServiceCategory{}},
		},
		Flows: []*proxy.Flow{
			mkFlow("http://tvping.com/t", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://tvping.com/t", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://xiti.com/px", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://tvping.com/t", "B", t0, 200, "image/gif", 35, ""),
			mkFlow("http://hbbtv.c.de/i", "C", t0, 200, "text/html", 300, "<html>"),
		},
	}}
	ix := buildIndex(t, runs...)
	by := ix.PerChannelTracking
	if len(by) != 2 {
		t.Fatalf("channels with tracking = %d, want 2", len(by))
	}
	if by["A"].TrackingRequests != 3 || by["A"].TrackerCount() != 2 {
		t.Errorf("A = %+v", by["A"])
	}
	cats := PerCategory(by, ix.Dataset, 1)
	if len(cats) != 3 {
		t.Fatalf("categories = %+v", cats)
	}
	if cats[0].Category != string(dvb.CategoryGeneral) || cats[0].TrackingRequests != 3 {
		t.Errorf("top category = %+v", cats[0])
	}
}

func TestPerCategoryFoldsSmall(t *testing.T) {
	runs := []*store.RunData{{
		Name: store.RunGeneral,
		Channels: []store.ChannelInfo{
			{Name: "A", Categories: []dvb.ServiceCategory{dvb.CategoryGeneral}},
			{Name: "B", Categories: []dvb.ServiceCategory{dvb.CategoryReligious}},
		},
	}}
	ds := &store.Dataset{Runs: runs}
	cats := PerCategory(map[string]*ChannelStats{}, ds, 2)
	for _, c := range cats {
		if c.Category == string(dvb.CategoryReligious) {
			t.Errorf("small category not folded: %+v", cats)
		}
	}
}

// leakDataset holds two flows leaking device data, one of them to a
// subdomain of the other's party, and one flow leaking the watched show
// and genre.
func leakDataset() *store.Dataset {
	u1, _ := url.Parse("http://collector.de/d?manufacturer=LGE&model=43UK6300LLB")
	u2, _ := url.Parse("http://profiler.com/b?genre=Krimi&uid=x")
	u3, _ := url.Parse("http://log.collector.de/e?os=WEBOS4.0")
	return &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunGeneral,
		Channels: []store.ChannelInfo{
			{Name: "A", Show: "Tatort", Genre: "Krimi"},
		},
		Flows: []*proxy.Flow{
			{Time: t0, Method: "GET", URL: u1, StatusCode: 200, Channel: "A",
				RequestHeaders: http.Header{}, ResponseHeaders: http.Header{}},
			{Time: t0, Method: "POST", URL: u2, StatusCode: 200, Channel: "A",
				RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
				RequestBody: []byte("show=Tatort")},
			{Time: t0, Method: "GET", URL: u3, StatusCode: 200, Channel: "A",
				RequestHeaders: http.Header{}, ResponseHeaders: http.Header{}},
		},
	}}}
}

// leakSearch prepares the engine's leak search over ix with the study
// device's needles, filling its tables in one pass each.
func leakSearch(ix *store.Index) *LeakSearch {
	s := NewLeakSearch(ix, LGNeedles)
	s.MatchPayloads(0, s.Payloads())
	s.MatchPairs(0, s.AddPairs([][]LeakPair{s.RowPairs(0, ix.FlowCount())}))
	return s
}

// scanAllLeaks runs the engine's leak search over every row of ds.
func scanAllLeaks(t *testing.T, ds *store.Dataset) []Leak {
	t.Helper()
	ix := buildIndex(t, ds.Runs...)
	return leakSearch(ix).Scan(0, ix.FlowCount())
}

func TestFindLeaksAndSummarize(t *testing.T) {
	fp := map[string]string{"A": "a.de"}
	leaks := scanAllLeaks(t, leakDataset())
	want := []Leak{
		{Kind: LeakTechnical, Keyword: "manufacturer", Channel: "A", Party: "collector.de", Run: store.RunGeneral},
		{Kind: LeakTechnical, Keyword: "model", Channel: "A", Party: "collector.de", Run: store.RunGeneral},
		{Kind: LeakBehavioral, Keyword: "show", Channel: "A", Party: "profiler.com", Run: store.RunGeneral},
		{Kind: LeakBehavioral, Keyword: "genre", Channel: "A", Party: "profiler.com", Run: store.RunGeneral},
		{Kind: LeakTechnical, Keyword: "os", Channel: "A", Party: "collector.de", Run: store.RunGeneral},
	}
	if !reflect.DeepEqual(leaks, want) {
		t.Fatalf("leaks = %+v, want %+v", leaks, want)
	}
	sum := Summarize(leaks, fp)
	// log.collector.de and collector.de are one party.
	if sum.TechnicalChannels != 1 || sum.TechnicalParties != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.BehavioralChannels != 1 {
		t.Errorf("behavioral channels = %d", sum.BehavioralChannels)
	}
	// One per matched needle: three flows carry five leaks.
	if sum.RequestsWithPersonalData != 5 {
		t.Errorf("RequestsWithPersonalData = %d, want 5", sum.RequestsWithPersonalData)
	}
}

func TestFindLeaksIgnoresCleanTraffic(t *testing.T) {
	u, _ := url.Parse("http://cdn.a.de/app.js")
	runs := []*store.RunData{{
		Name:     store.RunGeneral,
		Channels: []store.ChannelInfo{{Name: "A", Show: "Tatort", Genre: "Krimi"}},
		Flows: []*proxy.Flow{{
			Time: t0, Method: "GET", URL: u, StatusCode: 200, Channel: "A",
			RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		}},
	}}
	if leaks := scanAllLeaks(t, &store.Dataset{Runs: runs}); len(leaks) != 0 {
		t.Errorf("clean traffic produced leaks: %+v", leaks)
	}
}
