package tracking

import (
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/etld"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// The section analyzers fan these scans out over fixed row chunks and
// merge the chunk results. For every split point k, merging the scans of
// rows [0,k) and [k,n) must equal the scan of [0,n): the study-scale
// differential suite only sees the boundaries its 4096-row chunks hit.
//
// Each test also compares the whole-range scan with a serial reference
// below. The references walk the dataset's runs and compute every flow's
// values themselves — the classifier's kind bits, the eTLD+1 of the
// request host — so they share nothing with the index but the classifier.

// classify computes a flow's kind bits as the index build does.
func classify(cfg store.IndexConfig, f *proxy.Flow) store.FlowKind {
	return cfg.ClassifyFlow(f) | cfg.ClassifyURL(f.URL.String())
}

// flowText is the searched text of one flow: decoded query plus request
// body.
func flowText(f *proxy.Flow) string {
	var sb strings.Builder
	if q := f.URL.RawQuery; q != "" {
		if dec, err := url.QueryUnescape(q); err == nil {
			sb.WriteString(dec)
		} else {
			sb.WriteString(q)
		}
	}
	if len(f.RequestBody) > 0 {
		sb.WriteByte('\n')
		sb.Write(f.RequestBody)
	}
	return sb.String()
}

// findLeaks is the serial reference of the leak search over the whole
// dataset.
func findLeaks(ds *store.Dataset, needles DeviceNeedles) []Leak {
	var out []Leak
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			if f.Channel == "" {
				continue
			}
			hay := flowText(f)
			if hay == "" {
				continue
			}
			party := etld.MustRegistrableDomain(f.Host())
			leak := func(kind LeakKind, keyword string) {
				out = append(out, Leak{
					Kind: kind, Keyword: keyword,
					Channel: f.Channel, Party: party, Run: run.Name,
				})
			}
			for _, n := range needles.terms() {
				if n.term != "" && strings.Contains(hay, n.term) {
					leak(LeakTechnical, n.label)
				}
			}
			if info := ds.ChannelInfo(f.Channel); info != nil {
				if info.Show != "" && strings.Contains(hay, info.Show) {
					leak(LeakBehavioral, "show")
				}
				if info.Genre != "" && strings.Contains(hay, info.Genre) {
					leak(LeakBehavioral, "genre")
				}
			}
		}
	}
	return out
}

// deriveRulesFromDataset is the serial reference of the rule derivation
// (ScanRuleEvidence rendered by RulesFromEvidence) over the whole dataset.
func deriveRulesFromDataset(ds *store.Dataset, firstParty map[string]string) []DerivedRule {
	cfg := NewClassifier().IndexConfig()
	firstParties := FirstPartySet(firstParty)
	byScope := make(map[string]RuleEvidence)
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			k := classify(cfg, f)
			if k&(store.FlowPixel|store.FlowFingerprint) == 0 || k&store.FlowOnPiHole != 0 {
				continue
			}
			scope := etld.MustRegistrableDomain(f.Host())
			if _, isFP := firstParties[scope]; isFP {
				if f.Host() == scope {
					continue
				}
				scope = f.Host()
			}
			ev := byScope[scope]
			ev.Requests++
			ev.Kinds |= k & (store.FlowPixel | store.FlowFingerprint)
			byScope[scope] = ev
		}
	}
	return RulesFromEvidence(byScope)
}

// evaluateExtensionFromDataset is the serial reference of
// EvaluateExtensionRange over the whole dataset.
func evaluateExtensionFromDataset(ds *store.Dataset, rules []DerivedRule) (ExtensionResult, error) {
	extended, err := ExtendedList(rules)
	if err != nil {
		return ExtensionResult{}, err
	}
	cfg := NewClassifier().IndexConfig()
	var res ExtensionResult
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			k := classify(cfg, f)
			if k&(store.FlowPixel|store.FlowFingerprint) == 0 {
				continue
			}
			res.TrackingRequests++
			inBase := k&store.FlowOnPiHole != 0
			if inBase {
				res.BlockedBefore++
			}
			if inBase || extended.MatchURL(f.URL.String()) {
				res.BlockedAfter++
			}
		}
	}
	return res, nil
}

func TestScanRuleEvidenceSplitInvariance(t *testing.T) {
	ds := deriveDataset()
	ix := buildIndex(t, ds.Runs...)
	fp := FirstPartySet(deriveFirstParties)
	n := ix.FlowCount()
	whole := ScanRuleEvidence(ix, fp, 0, n)
	if len(whole) == 0 {
		t.Fatal("fixture yields no rule evidence")
	}
	for k := 0; k <= n; k++ {
		got := MergeRuleEvidence([]map[string]RuleEvidence{
			ScanRuleEvidence(ix, fp, 0, k), ScanRuleEvidence(ix, fp, k, n),
		})
		if !reflect.DeepEqual(got, whole) {
			t.Errorf("split at %d: %v, want %v", k, got, whole)
		}
	}
	// The scan renders the reference derivation's rules, over the
	// fixture's first parties and over the index's own.
	for _, firstParty := range []map[string]string{deriveFirstParties, ix.FirstParty} {
		got := RulesFromEvidence(ScanRuleEvidence(ix, FirstPartySet(firstParty), 0, n))
		if want := deriveRulesFromDataset(ds, firstParty); !reflect.DeepEqual(got, want) {
			t.Errorf("first parties %v: scanned rules = %+v, reference = %+v", firstParty, got, want)
		}
	}
}

func TestEvaluateExtensionRangeSplitInvariance(t *testing.T) {
	ds := deriveDataset()
	ix := buildIndex(t, ds.Runs...)
	rules := deriveRules(ix)
	extended, err := ExtendedList(rules)
	if err != nil {
		t.Fatal(err)
	}
	whole := extendedURLs(t, ix, rules)
	m := len(whole)
	for k := 0; k <= m; k++ {
		got := make([]bool, m)
		MatchExtendedURLs(ix, extended, got, 0, k)
		MatchExtendedURLs(ix, extended, got, k, m)
		if !reflect.DeepEqual(got, whole) {
			t.Errorf("URL table split at %d: %v, want %v", k, got, whole)
		}
	}
	n := ix.FlowCount()
	res := EvaluateExtensionRange(ix, whole, 0, n)
	if res.TrackingRequests == 0 {
		t.Fatal("fixture has no heuristic tracking requests")
	}
	for k := 0; k <= n; k++ {
		got := EvaluateExtensionRange(ix, whole, 0, k)
		got.Add(EvaluateExtensionRange(ix, whole, k, n))
		if got != res {
			t.Errorf("split at %d: %+v, want %+v", k, got, res)
		}
	}
	ref, err := evaluateExtensionFromDataset(ds, rules)
	if err != nil {
		t.Fatal(err)
	}
	if ref != res {
		t.Errorf("scanned coverage = %+v, reference = %+v", res, ref)
	}
}

// splitLeakSearch fills a leak search's tables with each pass cut in two:
// rows at k, and the payload and pair tables at k clamped to their size.
func splitLeakSearch(ix *store.Index, k int) *LeakSearch {
	two := func(n int, fn func(lo, hi int)) {
		m := min(k, n)
		fn(0, m)
		fn(m, n)
	}
	s := NewLeakSearch(ix, LGNeedles)
	two(s.Payloads(), s.MatchPayloads)
	n := ix.FlowCount()
	m := min(k, n)
	two(s.AddPairs([][]LeakPair{s.RowPairs(0, m), s.RowPairs(m, n)}), s.MatchPairs)
	return s
}

// TestScanLeaksSplitInvariance compares exact leak sequences: the
// technical needles are tried in a fixed order, so a flow's leaks come
// out in the same order on every scan. Every pass of the search — the
// payload table, the pair collection, the pair table and the row scan —
// is cut at every point in turn.
func TestScanLeaksSplitInvariance(t *testing.T) {
	ds := leakDataset()
	ix := buildIndex(t, ds.Runs...)
	n := ix.FlowCount()
	whole := leakSearch(ix).Scan(0, n)
	if len(whole) < 3 {
		t.Fatalf("fixture leaks = %+v", whole)
	}
	for k := 0; k <= n; k++ {
		s := splitLeakSearch(ix, k)
		got := append(s.Scan(0, k), s.Scan(k, n)...)
		if !reflect.DeepEqual(got, whole) {
			t.Errorf("split at %d: %+v, want %+v", k, got, whole)
		}
	}
	if ref := findLeaks(ds, LGNeedles); !reflect.DeepEqual(ref, whole) {
		t.Errorf("scanned leaks = %+v, reference = %+v", whole, ref)
	}
}

// TestLeakSearchMemoKeys pins the keys of the search's tables with
// fixtures that a coarser key would get wrong: one payload sent on two
// channels whose show and genre differ leaks behavioral data per channel
// (the pair table is keyed by payload and channel, not payload alone), and
// one query sent with and without a request body is two payloads (the
// payload table is keyed by query and body, not the query alone).
func TestLeakSearchMemoKeys(t *testing.T) {
	beacon, _ := url.Parse("http://profiler.com/b?p=Tatort+Nachrichten")
	ping, _ := url.Parse("http://collector.de/p?v=1")
	flow := func(u *url.URL, channel, body string) *proxy.Flow {
		return &proxy.Flow{
			Time: t0, Method: "POST", URL: u, StatusCode: 200, Channel: channel,
			RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
			RequestBody: []byte(body),
		}
	}
	ds := &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunGeneral,
		Channels: []store.ChannelInfo{
			{Name: "A", Show: "Tatort", Genre: "Krimi"},
			{Name: "B", Show: "Heute", Genre: "Nachrichten"},
		},
		Flows: []*proxy.Flow{
			flow(beacon, "A", ""),
			flow(beacon, "B", ""),
			flow(ping, "A", ""),
			flow(ping, "A", "model=43UK6300LLB"),
		},
	}}}
	ix := buildIndex(t, ds.Runs...)
	got := leakSearch(ix).Scan(0, ix.FlowCount())
	want := []Leak{
		{Kind: LeakBehavioral, Keyword: "show", Channel: "A", Party: "profiler.com", Run: store.RunGeneral},
		{Kind: LeakBehavioral, Keyword: "genre", Channel: "B", Party: "profiler.com", Run: store.RunGeneral},
		{Kind: LeakTechnical, Keyword: "model", Channel: "A", Party: "collector.de", Run: store.RunGeneral},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("leaks = %+v, want %+v", got, want)
	}
	if ref := findLeaks(ds, LGNeedles); !reflect.DeepEqual(ref, want) {
		t.Errorf("reference leaks = %+v, want %+v", ref, want)
	}
}
