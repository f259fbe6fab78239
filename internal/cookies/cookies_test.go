package cookies

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/etld"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

var (
	winStart = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	winEnd   = time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC)
)

func TestClassifyPurpose(t *testing.T) {
	tests := []struct {
		name  string
		want  Purpose
		known bool
	}{
		{"_ga", PurposePerformance, true},
		{"IDE", PurposeTargeting, true},
		{"xtuid", PurposePerformance, true},
		{"consent", PurposeNecessary, true},
		{"lang", PurposeFunctionality, true},
		{"zapid", PurposeUnknown, false},       // HbbTV-specific, unknown
		{"hbbtv_track", PurposeUnknown, false}, //
	}
	for _, tt := range tests {
		got, known := ClassifyPurpose(tt.name)
		if got != tt.want || known != tt.known {
			t.Errorf("ClassifyPurpose(%q) = (%v, %v), want (%v, %v)",
				tt.name, got, known, tt.want, tt.known)
		}
	}
}

func TestIsLikelyID(t *testing.T) {
	tests := []struct {
		value string
		want  bool
	}{
		{"ab12cd34ef", true},                  // 10 chars
		{"0123456789abcdef0123456", true},     // 23 chars
		{"short", false},                      // too short
		{"0123456789abcdef0123456789", false}, // 26 chars, too long
		{"1692615600", false},                 // Unix ts in window (Aug 2023)
		{"1692615600123", false},              // ms ts in window
		{"1262304000", true},                  // 2010 ts, outside window
		{"9999999999", true},                  // 2286, outside window
	}
	for _, tt := range tests {
		if got := IsLikelyID(tt.value, winStart, winEnd); got != tt.want {
			t.Errorf("IsLikelyID(%q) = %v, want %v", tt.value, got, tt.want)
		}
	}
}

func TestIDLenOnlyAblation(t *testing.T) {
	// The timestamp that the full heuristic excludes is accepted by the
	// length-only variant — the false-positive class.
	ts := "1692615600"
	if !IsLikelyIDLenOnly(ts) {
		t.Error("length-only heuristic should accept the timestamp")
	}
	if IsLikelyID(ts, winStart, winEnd) {
		t.Error("full heuristic must reject the in-window timestamp")
	}
}

func flowWithCookie(rawURL, channel, name, value string) *proxy.Flow {
	u, _ := url.Parse(rawURL)
	h := http.Header{}
	h.Add("Set-Cookie", (&http.Cookie{Name: name, Value: value, Path: "/"}).String())
	return &proxy.Flow{
		Time:            winStart,
		Method:          http.MethodGet,
		URL:             u,
		StatusCode:      200,
		Channel:         channel,
		RequestHeaders:  http.Header{},
		ResponseHeaders: h,
	}
}

func plainFlow(rawURL, channel string) *proxy.Flow {
	u, _ := url.Parse(rawURL)
	return &proxy.Flow{
		Time: winStart, Method: http.MethodGet, URL: u, StatusCode: 200,
		Channel: channel, RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
	}
}

// testRun's first request per channel goes to the channel's own app host,
// so the index identifies testFirstParty.
func testRun() *store.RunData {
	return &store.RunData{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			flowWithCookie("http://hbbtv.ard.de/app", "Das Erste", "fpid", "aaaaaaaaaa11"),
			flowWithCookie("http://xiti.com/px", "Das Erste", "xtuid", "bbbbbbbbbb22"),
			plainFlow("http://hbbtv.zdf.de/app", "ZDF"),
			flowWithCookie("http://xiti.com/px", "ZDF", "xtuid", "cccccccccc33"),
			flowWithCookie("http://tvping.com/t", "ZDF", "tvp", "dddddddddd44"),
			plainFlow("http://cdn.ard.de/app.js", "Das Erste"),
			flowWithCookie("http://orphan.de/x", "", "ghost", "eeeeeeeeee55"), // unattributed
		},
	}
}

var testFirstParty = map[string]string{"Das Erste": "ard.de", "ZDF": "zdf.de"}

// buildIndex indexes one run; the cookie events and the first parties
// they are classified against come from the index's single pass.
func buildIndex(t *testing.T, run *store.RunData) *store.Index {
	t.Helper()
	ix, err := store.BuildIndex(context.Background(), &store.Dataset{Runs: []*store.RunData{run}}, store.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSetEvents(t *testing.T) {
	ix := buildIndex(t, testRun())
	if !reflect.DeepEqual(ix.FirstParty, testFirstParty) {
		t.Fatalf("first parties = %v, want %v", ix.FirstParty, testFirstParty)
	}
	events := ix.SetEvents
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4 (unattributed skipped)", len(events))
	}
	if events[0].Party != "ard.de" || events[0].ThirdParty {
		t.Errorf("ard cookie = %+v, want first-party", events[0])
	}
	if !events[1].ThirdParty || events[1].Party != "xiti.com" {
		t.Errorf("xiti cookie = %+v, want third-party", events[1])
	}
}

func TestFirstThirdCounts(t *testing.T) {
	events := buildIndex(t, testRun()).SetEvents
	first, third := FirstThirdCounts(events)
	if first != 1 {
		t.Errorf("first = %d, want 1", first)
	}
	if third != 2 { // xiti.com/xtuid and tvping.com/tvp
		t.Errorf("third = %d, want 2", third)
	}
	if got := DistinctCookies(events); got != 3 {
		t.Errorf("distinct = %d, want 3", got)
	}
}

func TestAnalyzeThirdParty(t *testing.T) {
	events := buildIndex(t, testRun()).SetEvents
	u := AnalyzeThirdParty(store.RunRed, events)
	if u.Parties != 2 {
		t.Errorf("parties = %d, want 2", u.Parties)
	}
	if u.Cookies != 3 { // xiti on 2 channels + tvping on 1
		t.Errorf("cookies = %d, want 3", u.Cookies)
	}
	if u.PerParty.Mean != 1.5 {
		t.Errorf("per-party mean = %v, want 1.5", u.PerParty.Mean)
	}
	if got := u.ByChannel["ZDF"]; got != 2 {
		t.Errorf("ZDF third-party cookies = %d, want 2", got)
	}
}

func TestPartyChannelCounts(t *testing.T) {
	events := buildIndex(t, testRun()).SetEvents
	counts := PartyChannelCounts(events)
	if counts["xiti.com"] != 2 || counts["tvping.com"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if _, ok := counts["ard.de"]; ok {
		t.Error("first party counted as cookie-using third party")
	}
}

// detectSyncing is the serial reference of the syncing scan: it walks the
// runs' flows, tokenizes each flow's query and body, and computes each
// target party's eTLD+1 directly.
func detectSyncing(runs []*store.RunData, events []SetEvent, windowStart, windowEnd time.Time) []SyncEvent {
	idOwners := MintedIDs(events, windowStart, windowEnd)
	var out []SyncEvent
	seen := make(map[[3]string]struct{})
	for _, run := range runs {
		for _, f := range run.Flows {
			haystack := f.URL.RawQuery
			if len(f.RequestBody) > 0 {
				haystack += "&" + string(f.RequestBody)
			}
			target := etld.MustRegistrableDomain(f.Host())
			forEachToken(haystack, func(token string) {
				for _, owner := range idOwners[token] {
					key := [3]string{owner, target, token}
					if _, dup := seen[key]; dup || owner == target {
						continue
					}
					seen[key] = struct{}{}
					out = append(out, SyncEvent{
						FromParty: owner, ToParty: target, Value: token,
						Channel: f.Channel, Run: run.Name,
					})
				}
			})
		}
	}
	return out
}

// carriedIDs fills the per-payload table of ix in one pass.
func carriedIDs(ids map[string][]string, ix *store.Index) [][]string {
	carried := make([][]string, len(ix.Columns().Payloads))
	CarriedIDs(ids, ix, carried, 0, len(carried))
	return carried
}

// scanAllSyncs runs the engine's syncing scan over every row of run.
func scanAllSyncs(t *testing.T, run *store.RunData) []SyncEvent {
	t.Helper()
	ix := buildIndex(t, run)
	ids := MintedIDs(ix.SetEvents, winStart, winEnd)
	return ScanSyncing(ids, carriedIDs(ids, ix), ix, 0, ix.FlowCount())
}

func TestDetectSyncing(t *testing.T) {
	run := testRun()
	// Add a sync: xiti's ID for Das Erste is forwarded to partner.de.
	syncURL, _ := url.Parse("http://partner.de/match?puid=bbbbbbbbbb22&src=xiti.com")
	run.Flows = append(run.Flows, &proxy.Flow{
		Time: winStart, Method: http.MethodGet, URL: syncURL, StatusCode: 200,
		Channel: "Das Erste", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
	})
	syncs := scanAllSyncs(t, run)
	if len(syncs) != 1 {
		t.Fatalf("syncs = %+v, want 1", syncs)
	}
	s := syncs[0]
	if s.FromParty != "xiti.com" || s.ToParty != "partner.de" || s.Value != "bbbbbbbbbb22" {
		t.Errorf("sync = %+v", s)
	}
}

func TestDetectSyncingIgnoresSameParty(t *testing.T) {
	run := testRun()
	// The ID travelling back to its own minting party is not syncing.
	selfURL, _ := url.Parse("http://xiti.com/hit?uid=bbbbbbbbbb22")
	run.Flows = append(run.Flows, &proxy.Flow{
		Time: winStart, Method: http.MethodGet, URL: selfURL, StatusCode: 200,
		Channel: "Das Erste", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
	})
	if syncs := scanAllSyncs(t, run); len(syncs) != 0 {
		t.Errorf("self-send flagged as sync: %+v", syncs)
	}
}

func TestDetectSyncingInPOSTBody(t *testing.T) {
	run := testRun()
	bodyURL, _ := url.Parse("http://dmp.example.com/ingest")
	run.Flows = append(run.Flows, &proxy.Flow{
		Time: winStart, Method: http.MethodPost, URL: bodyURL, StatusCode: 200,
		Channel: "ZDF", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		RequestBody: []byte(`{"partner_uid":"dddddddddd44"}`),
	})
	syncs := scanAllSyncs(t, run)
	if len(syncs) != 1 || syncs[0].FromParty != "tvping.com" {
		t.Errorf("POST-body sync = %+v", syncs)
	}
}

// TestScanSyncingSplitInvariance: the cookies section scans row chunks
// with chunk-local dedup and merges them in row order. For every split
// point the merge must equal the whole-range scan and the serial
// reference, including the attribution of a sync triple seen twice.
func TestScanSyncingSplitInvariance(t *testing.T) {
	run := testRun()
	syncURL, _ := url.Parse("http://partner.de/match?puid=bbbbbbbbbb22&src=xiti.com")
	bodyURL, _ := url.Parse("http://dmp.example.com/ingest")
	run.Flows = append(run.Flows,
		&proxy.Flow{
			Time: winStart, Method: http.MethodGet, URL: syncURL, StatusCode: 200,
			Channel: "Das Erste", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		},
		&proxy.Flow{ // same triple again: the earlier flow keeps the attribution
			Time: winStart, Method: http.MethodGet, URL: syncURL, StatusCode: 200,
			Channel: "ZDF", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		},
		&proxy.Flow{
			Time: winStart, Method: http.MethodPost, URL: bodyURL, StatusCode: 200,
			Channel: "ZDF", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
			RequestBody: []byte(`{"partner_uid":"dddddddddd44"}`),
		},
	)
	ix := buildIndex(t, run)
	ids := MintedIDs(ix.SetEvents, winStart, winEnd)
	carried := carriedIDs(ids, ix)
	n := ix.FlowCount()
	whole := ScanSyncing(ids, carried, ix, 0, n)
	if len(whole) != 2 || whole[0].Channel != "Das Erste" {
		t.Fatalf("whole-range syncs = %+v", whole)
	}
	for k := 0; k <= len(carried); k++ {
		got := make([][]string, len(carried))
		CarriedIDs(ids, ix, got, 0, k)
		CarriedIDs(ids, ix, got, k, len(carried))
		if !reflect.DeepEqual(got, carried) {
			t.Errorf("payload table split at %d: %q, want %q", k, got, carried)
		}
	}
	for k := 0; k <= n; k++ {
		got := MergeSyncEvents([][]SyncEvent{ScanSyncing(ids, carried, ix, 0, k), ScanSyncing(ids, carried, ix, k, n)})
		if !reflect.DeepEqual(got, whole) {
			t.Errorf("split at %d: %+v, want %+v", k, got, whole)
		}
	}
	if ref := detectSyncing([]*store.RunData{run}, ix.SetEvents, winStart, winEnd); !reflect.DeepEqual(ref, whole) {
		t.Errorf("scanned syncs = %+v, reference = %+v", whole, ref)
	}
}

// TestSyncingTargetIsPerRow pins the key of the per-payload table: a
// payload's minted identifiers are memoized, its receiver is not. One
// payload carrying xiti's identifier goes first to xiti itself and then to
// another party; only the second send is syncing.
func TestSyncingTargetIsPerRow(t *testing.T) {
	run := testRun()
	self, _ := url.Parse("http://xiti.com/hit?uid=bbbbbbbbbb22")
	other, _ := url.Parse("http://partner.de/hit?uid=bbbbbbbbbb22")
	for _, u := range []*url.URL{self, other} {
		run.Flows = append(run.Flows, &proxy.Flow{
			Time: winStart, Method: http.MethodGet, URL: u, StatusCode: 200,
			Channel: "Das Erste", RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		})
	}
	syncs := scanAllSyncs(t, run)
	want := []SyncEvent{{
		FromParty: "xiti.com", ToParty: "partner.de", Value: "bbbbbbbbbb22",
		Channel: "Das Erste", Run: run.Name,
	}}
	if !reflect.DeepEqual(syncs, want) {
		t.Errorf("syncs = %+v, want %+v", syncs, want)
	}
	ix := buildIndex(t, run)
	if ref := detectSyncing([]*store.RunData{run}, ix.SetEvents, winStart, winEnd); !reflect.DeepEqual(ref, want) {
		t.Errorf("reference syncs = %+v, want %+v", ref, want)
	}
}

func TestPotentialIDs(t *testing.T) {
	run := testRun()
	// Add a timestamp cookie that must NOT count.
	run.Flows = append(run.Flows,
		flowWithCookie("http://cmp.de/c", "ZDF", "ctime", strconv.FormatInt(winStart.Add(time.Hour).Unix(), 10)))
	events := buildIndex(t, run).SetEvents
	if got := PotentialIDs(events, winStart, winEnd); got != 4 {
		t.Errorf("PotentialIDs = %d, want 4", got)
	}
}

// Property: values under 10 or over 25 chars are never IDs.
func TestIDLengthBandProperty(t *testing.T) {
	f := func(n uint8) bool {
		ln := int(n) % 40
		v := make([]byte, ln)
		for i := range v {
			v[i] = 'x'
		}
		got := IsLikelyID(string(v), winStart, winEnd)
		want := ln >= 10 && ln <= 25
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyzePurposes(t *testing.T) {
	run := testRun()
	// Add a classifiable targeting cookie and a consent cookie.
	run.Flows = append(run.Flows,
		flowWithCookie("http://ads.net/px", "ZDF", "uuid2", "ffffffffff99"),
		flowWithCookie("http://hbbtv.ard.de/app", "Das Erste", "consent", "all-1692615600"),
	)
	events := buildIndex(t, run).SetEvents
	d := AnalyzePurposes(store.RunRed, events)
	if d.Total != 5 {
		t.Fatalf("total = %d, want 5 distinct cookies", d.Total)
	}
	// xtuid (performance), uuid2 (targeting), consent (necessary) classify;
	// fpid and tvp do not.
	if d.Classified != 3 {
		t.Errorf("classified = %d, want 3 (%v)", d.Classified, d.ByPurpose)
	}
	if d.ByPurpose[PurposeTargeting] != 1 || d.ByPurpose[PurposePerformance] != 1 ||
		d.ByPurpose[PurposeNecessary] != 1 || d.ByPurpose[PurposeUnknown] != 2 {
		t.Errorf("distribution = %v", d.ByPurpose)
	}
	if got := d.CoverageShare(); got != 0.6 {
		t.Errorf("coverage = %v", got)
	}
	empty := AnalyzePurposes(store.RunGreen, events)
	if empty.Total != 0 || empty.CoverageShare() != 0 {
		t.Errorf("other-run distribution not empty: %+v", empty)
	}
}
