package tracking

import (
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

// findLeaks is the serial reference of ScanLeaks over the whole dataset.
func findLeaks(ds *store.Dataset, needles DeviceNeedles) []Leak {
	var out []Leak
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			if f.Channel == "" {
				continue
			}
			hay := flowPayload(f)
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
				if scope = hostScope(f.Host()); scope == "" {
					continue
				}
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
	n := ix.FlowCount()
	whole := EvaluateExtensionRange(ix, extended, 0, n)
	if whole.TrackingRequests == 0 {
		t.Fatal("fixture has no heuristic tracking requests")
	}
	for k := 0; k <= n; k++ {
		got := EvaluateExtensionRange(ix, extended, 0, k)
		got.Add(EvaluateExtensionRange(ix, extended, k, n))
		if got != whole {
			t.Errorf("split at %d: %+v, want %+v", k, got, whole)
		}
	}
	ref, err := evaluateExtensionFromDataset(ds, rules)
	if err != nil {
		t.Fatal(err)
	}
	if ref != whole {
		t.Errorf("scanned coverage = %+v, reference = %+v", whole, ref)
	}
}

// TestScanLeaksSplitInvariance compares exact leak sequences: the
// technical needles are tried in a fixed order, so a flow's leaks come
// out in the same order on every scan.
func TestScanLeaksSplitInvariance(t *testing.T) {
	ds := leakDataset()
	ix := buildIndex(t, ds.Runs...)
	n := ix.FlowCount()
	whole := ScanLeaks(ix, LGNeedles, 0, n)
	if len(whole) < 3 {
		t.Fatalf("fixture leaks = %+v", whole)
	}
	for k := 0; k <= n; k++ {
		got := append(ScanLeaks(ix, LGNeedles, 0, k), ScanLeaks(ix, LGNeedles, k, n)...)
		if !reflect.DeepEqual(got, whole) {
			t.Errorf("split at %d: %+v, want %+v", k, got, whole)
		}
	}
	if ref := findLeaks(ds, LGNeedles); !reflect.DeepEqual(ref, whole) {
		t.Errorf("scanned leaks = %+v, reference = %+v", whole, ref)
	}
}
