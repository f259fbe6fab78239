package tracking

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/filterlist"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// deriveDataset holds: an unlisted pixel host (3 requests), an unlisted
// fingerprinter (1), a first-party stats pixel (2), a listed web tracker
// (1, must be skipped), and clean traffic.
func deriveDataset() *store.Dataset {
	return &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			mkFlow("http://ch1.tvping.com/t", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://ch1.tvping.com/t", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://ch2.tvping.com/t", "B", t0, 200, "image/gif", 35, ""),
			mkFlow("http://metrixfp01.de/fp.js", "A", t0, 200, "application/javascript", 99, "toDataURL"),
			mkFlow("http://stats.ard.de/px?c=a", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://stats.ard.de/px?c=b", "B", t0, 200, "image/gif", 35, ""),
			mkFlow("http://google-analytics.com/collect", "A", t0, 200, "image/gif", 35, ""),
			mkFlow("http://hbbtv.ard.de/index.html", "A", t0, 200, "text/html", 500, "<html>"),
		},
	}}}
}

var deriveFirstParties = map[string]string{"A": "ard.de", "B": "ard.de"}

// deriveRules runs the engine's derivation over the whole fixture: the
// evidence scan of every row with deriveFirstParties as the first-party
// set, rendered as rules. Pi-hole is the base list.
func deriveRules(ix *store.Index) []DerivedRule {
	return RulesFromEvidence(ScanRuleEvidence(ix, FirstPartySet(deriveFirstParties), 0, ix.FlowCount()))
}

func TestDeriveFilterRules(t *testing.T) {
	rules := deriveRules(buildIndex(t, deriveDataset().Runs...))

	byDomain := map[string]DerivedRule{}
	for _, r := range rules {
		byDomain[r.Domain] = r
	}
	// The unlisted pixel host is derived at eTLD+1 scope with 3 requests.
	if r, ok := byDomain["tvping.com"]; !ok || r.Requests != 3 || r.Rule != "||tvping.com^" {
		t.Errorf("tvping rule = %+v", byDomain["tvping.com"])
	}
	// The fingerprinter is derived with the fingerprint kind.
	if r, ok := byDomain["metrixfp01.de"]; !ok || r.Kinds != store.FlowFingerprint {
		t.Errorf("fingerprinter rule = %+v", byDomain["metrixfp01.de"])
	}
	// The first-party measurement host is blocked at HOST scope, so the
	// app platform itself stays reachable.
	if _, ok := byDomain["ard.de"]; ok {
		t.Error("derived a rule blocking the whole first party")
	}
	if r, ok := byDomain["stats.ard.de"]; !ok || r.Requests != 2 {
		t.Errorf("stats host rule = %+v", byDomain["stats.ard.de"])
	}
	// Already-listed trackers are not re-derived.
	if _, ok := byDomain["google-analytics.com"]; ok {
		t.Error("derived a rule for an already-covered tracker")
	}
	// Ordered by evidence.
	if rules[0].Domain != "tvping.com" {
		t.Errorf("rules[0] = %+v, want the most-evidenced domain first", rules[0])
	}
}

func TestRulesTextParses(t *testing.T) {
	text := RulesText(deriveRules(buildIndex(t, deriveDataset().Runs...)))
	if !strings.HasPrefix(text, "!") {
		t.Error("rules text missing header comment")
	}
	l, err := filterlist.Parse("derived", text)
	if err != nil {
		t.Fatal(err)
	}
	if !l.MatchURL("http://ch9.tvping.com/t?c=x") {
		t.Error("derived list does not block the pixel host")
	}
	if l.MatchURL("http://hbbtv.ard.de/index.html") {
		t.Error("derived list blocks the application platform")
	}
	if !l.MatchURL("http://stats.ard.de/px") {
		t.Error("derived list does not block the first-party stats host")
	}
}

// extendedURLs matches the derived rules of ix against every distinct URL
// of ix in one pass.
func extendedURLs(t *testing.T, ix *store.Index, rules []DerivedRule) []bool {
	t.Helper()
	extended, err := ExtendedList(rules)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make([]bool, ix.Columns().URLs.Len())
	MatchExtendedURLs(ix, extended, blocked, 0, len(blocked))
	return blocked
}

func TestEvaluateExtension(t *testing.T) {
	ix := buildIndex(t, deriveDataset().Runs...)
	res := EvaluateExtensionRange(ix, extendedURLs(t, ix, deriveRules(ix)), 0, ix.FlowCount())
	// 7 heuristic tracking requests (3 tvping + 1 fp + 2 stats + 1 GA).
	if res.TrackingRequests != 7 {
		t.Errorf("tracking requests = %d", res.TrackingRequests)
	}
	if res.BlockedBefore != 1 { // only GA is on Pi-hole
		t.Errorf("blocked before = %d", res.BlockedBefore)
	}
	if res.BlockedAfter != 7 {
		t.Errorf("blocked after = %d, want full coverage", res.BlockedAfter)
	}
	if res.CoverageAfter() <= res.CoverageBefore() {
		t.Errorf("extension did not improve coverage: %.2f -> %.2f",
			res.CoverageBefore(), res.CoverageAfter())
	}
}

// TestDeriveRulesMultiLabelSuffix: a first party under a multi-label
// public suffix (bbc.co.uk under co.uk) has two dots in its own name, yet
// is not a dedicated subdomain. Evidence on the first party itself yields
// no rule; evidence on its measurement subdomain yields a host rule.
func TestDeriveRulesMultiLabelSuffix(t *testing.T) {
	ds := &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			mkFlow("http://bbc.co.uk/px?c=a", "BBC", t0, 200, "image/gif", 35, ""),
			mkFlow("http://bbc.co.uk/px?c=b", "BBC", t0, 200, "image/gif", 35, ""),
			mkFlow("http://stats.bbc.co.uk/px", "BBC", t0, 200, "image/gif", 35, ""),
		},
	}}}
	firstParty := map[string]string{"BBC": "bbc.co.uk"}
	ix := buildIndex(t, ds.Runs...)
	rules := RulesFromEvidence(ScanRuleEvidence(ix, FirstPartySet(firstParty), 0, ix.FlowCount()))
	want := []DerivedRule{{
		Rule: "||stats.bbc.co.uk^", Domain: "stats.bbc.co.uk", Requests: 1, Kinds: store.FlowPixel,
	}}
	if !reflect.DeepEqual(rules, want) {
		t.Errorf("rules = %+v, want %+v", rules, want)
	}
	if ref := deriveRulesFromDataset(ds, firstParty); !reflect.DeepEqual(ref, want) {
		t.Errorf("reference rules = %+v, want %+v", ref, want)
	}
}
