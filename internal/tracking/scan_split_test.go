package tracking

import (
	"reflect"
	"sort"
	"testing"
)

// The section analyzers fan these scans out over fixed row chunks and
// merge the chunk results. For every split point k, merging the scans of
// rows [0,k) and [k,n) must equal the scan of [0,n): the study-scale
// differential suite only sees the boundaries its 4096-row chunks hit.

func TestScanRuleEvidenceSplitInvariance(t *testing.T) {
	ix := buildIndex(t, deriveDataset().Runs...)
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
	// Over the index's own first parties, the scan renders the reference
	// derivation's rules.
	got := RulesFromEvidence(ScanRuleEvidence(ix, FirstPartySet(ix.FirstParty), 0, n))
	if want := DeriveRulesFromIndex(ix); !reflect.DeepEqual(got, want) {
		t.Errorf("scanned rules = %+v, reference = %+v", got, want)
	}
}

func TestEvaluateExtensionRangeSplitInvariance(t *testing.T) {
	ix := buildIndex(t, deriveDataset().Runs...)
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
	ref, err := EvaluateExtensionFromIndex(ix, rules)
	if err != nil {
		t.Fatal(err)
	}
	if ref != whole {
		t.Errorf("scanned coverage = %+v, reference = %+v", whole, ref)
	}
}

// sortedLeaks orders leaks canonically. Within one flow the technical
// needles are tried in map order, so scans agree on the multiset of
// leaks, which is all Summarize reads.
func sortedLeaks(leaks []Leak) []Leak {
	out := append([]Leak(nil), leaks...)
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.Channel != y.Channel {
			return x.Channel < y.Channel
		}
		if x.Party != y.Party {
			return x.Party < y.Party
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Keyword < y.Keyword
	})
	return out
}

func TestScanLeaksSplitInvariance(t *testing.T) {
	ds := leakDataset()
	ix := buildIndex(t, ds.Runs...)
	n := ix.FlowCount()
	whole := sortedLeaks(ScanLeaks(ix, LGNeedles, 0, n))
	if len(whole) < 3 {
		t.Fatalf("fixture leaks = %+v", whole)
	}
	for k := 0; k <= n; k++ {
		got := append(ScanLeaks(ix, LGNeedles, 0, k), ScanLeaks(ix, LGNeedles, k, n)...)
		if !reflect.DeepEqual(sortedLeaks(got), whole) {
			t.Errorf("split at %d: %+v, want %+v", k, got, whole)
		}
	}
	if ref := sortedLeaks(FindLeaks(ds, ix.FirstParty, LGNeedles)); !reflect.DeepEqual(ref, whole) {
		t.Errorf("scanned leaks = %+v, reference = %+v", whole, ref)
	}
}
