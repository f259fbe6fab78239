package tracking

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/filterlist"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file implements the paper's future-work proposal: "(automatically)
// deriving additional filter rules from observed traffic that block
// trackers for HbbTV". Trackers detected by the behavioural heuristics
// (pixels, fingerprints) but missed by the existing Web lists become
// Adblock-Plus rules; a first party's own measurement host is blocked at
// host granularity (blocking the whole first party would break the app).
// The first party's own eTLD+1 is never blocked, also under a multi-label
// public suffix such as co.uk.

// DerivedRule is one generated filter rule with its evidence.
type DerivedRule struct {
	Rule string
	// Domain is the blocked scope (eTLD+1 or a first-party subdomain).
	Domain string
	// Requests is how many tracking requests the rule's evidence covers.
	Requests int
	// Kinds aggregates why the domain was flagged: the FlowPixel and
	// FlowFingerprint bits of its evidence.
	Kinds store.FlowKind
}

// RuleEvidence is the per-scope accumulator behind rule derivation: how
// many heuristic tracking requests a blockable scope covers and why they
// were flagged. Counts and kind bits are order-independent, so evidence
// maps from disjoint row ranges merge to the same result in any order.
type RuleEvidence struct {
	Requests int
	Kinds    store.FlowKind
}

// FirstPartySet inverts a channel -> first-party map into the party set
// the derivation scope rule consults.
func FirstPartySet(firstParty map[string]string) map[string]struct{} {
	out := make(map[string]struct{}, len(firstParty))
	for _, fp := range firstParty {
		out[fp] = struct{}{}
	}
	return out
}

// ScanRuleEvidence accumulates derivation evidence for rows [lo, hi) of
// the index: heuristically detected tracking requests that the Pi-hole
// base list misses, keyed by blockable scope. A scope is a function of the
// request host, so rows are tallied per host ID and each host's scope is
// resolved once. Maps from disjoint ranges combine with MergeRuleEvidence,
// and RulesFromEvidence renders the rules.
func ScanRuleEvidence(ix *store.Index, firstParties map[string]struct{}, lo, hi int) map[string]RuleEvidence {
	cols := ix.Columns()
	byHost := make([]RuleEvidence, cols.Hosts.Len())
	for i := lo; i < hi; i++ {
		k := cols.Kind[i]
		if k&(store.FlowPixel|store.FlowFingerprint) == 0 {
			continue // only heuristic detections feed derivation
		}
		if k&store.FlowOnPiHole != 0 {
			continue // already covered by the base list
		}
		ev := &byHost[cols.HostID[i]]
		ev.Requests++
		ev.Kinds |= k & (store.FlowPixel | store.FlowFingerprint)
	}
	byScope := make(map[string]RuleEvidence)
	for hostID, ev := range byHost {
		if ev.Requests == 0 {
			continue
		}
		host := cols.Hosts.String(int32(hostID))
		scope := cols.Parties.String(cols.PartyOfHost[hostID])
		if _, isFP := firstParties[scope]; isFP {
			// Block only a measurement subdomain, never the app platform:
			// a first party's own eTLD+1 (whatever its public suffix) is
			// not blockable.
			if host == scope {
				continue
			}
			scope = host
		}
		acc := byScope[scope]
		acc.Requests += ev.Requests
		acc.Kinds |= ev.Kinds
		byScope[scope] = acc
	}
	return byScope
}

// MergeRuleEvidence sums per-scope evidence maps (addition and bit-or are
// commutative, so any merge order yields the same map).
func MergeRuleEvidence(parts []map[string]RuleEvidence) map[string]RuleEvidence {
	out := make(map[string]RuleEvidence)
	for _, p := range parts {
		for scope, ev := range p {
			acc := out[scope]
			acc.Requests += ev.Requests
			acc.Kinds |= ev.Kinds
			out[scope] = acc
		}
	}
	return out
}

// RulesFromEvidence renders an evidence map as the sorted rule list
// (most-evidenced first, name-tiebroken — fully deterministic).
func RulesFromEvidence(byScope map[string]RuleEvidence) []DerivedRule {
	rules := make([]DerivedRule, 0, len(byScope))
	for scope, ev := range byScope {
		rules = append(rules, DerivedRule{
			Rule:     fmt.Sprintf("||%s^", scope),
			Domain:   scope,
			Requests: ev.Requests,
			Kinds:    ev.Kinds,
		})
	}
	sort.Slice(rules, func(a, b int) bool {
		if rules[a].Requests != rules[b].Requests {
			return rules[a].Requests > rules[b].Requests
		}
		return rules[a].Domain < rules[b].Domain
	})
	return rules
}

// RulesText renders derived rules as an ABP list body.
func RulesText(rules []DerivedRule) string {
	var b strings.Builder
	b.WriteString("! Derived HbbTV tracker rules (generated from observed traffic)\n")
	for _, r := range rules {
		b.WriteString(r.Rule)
		b.WriteByte('\n')
	}
	return b.String()
}

// ExtensionResult quantifies how much an extended list improves coverage.
type ExtensionResult struct {
	TrackingRequests int // heuristically-detected tracking requests
	BlockedBefore    int // covered by the base list alone
	BlockedAfter     int // covered by base + derived rules
}

// CoverageBefore returns the base list's share of tracking requests.
func (r ExtensionResult) CoverageBefore() float64 {
	if r.TrackingRequests == 0 {
		return 0
	}
	return float64(r.BlockedBefore) / float64(r.TrackingRequests)
}

// CoverageAfter returns the extended list's share.
func (r ExtensionResult) CoverageAfter() float64 {
	if r.TrackingRequests == 0 {
		return 0
	}
	return float64(r.BlockedAfter) / float64(r.TrackingRequests)
}

// ExtendedList compiles derived rules into the matchable extension list.
func ExtendedList(rules []DerivedRule) (*filterlist.List, error) {
	extended := filterlist.MustParseHosts("base-copy", "")
	if err := extended.Append(RulesText(rules)); err != nil {
		return nil, err
	}
	return extended, nil
}

// MatchExtendedURLs matches the extended list once per distinct URL: for
// the IDs [lo, hi) of the index's URL table it sets blocked[id] to whether
// extended flags that URL. Each ID writes its own slot, so any chunking of
// the table fills blocked the same way.
func MatchExtendedURLs(ix *store.Index, extended *filterlist.List, blocked []bool, lo, hi int) {
	urls := ix.Columns().URLs.All()
	for id := lo; id < hi; id++ {
		blocked[id] = extended.MatchURL(urls[id])
	}
}

// EvaluateExtensionRange measures the Pi-hole base list's coverage of
// heuristic tracking requests in rows [lo, hi), before and after adding
// the derived rules. The base-list hits come from the row's FlowOnPiHole
// bit and the derived-rule hits from blocked, the per-URL table
// MatchExtendedURLs fills, so a row reads two bits. The counters of
// disjoint ranges sum to the counters of their union.
func EvaluateExtensionRange(ix *store.Index, blocked []bool, lo, hi int) ExtensionResult {
	cols := ix.Columns()
	var res ExtensionResult
	for i := lo; i < hi; i++ {
		k := cols.Kind[i]
		if k&(store.FlowPixel|store.FlowFingerprint) == 0 {
			continue
		}
		res.TrackingRequests++
		inBase := k&store.FlowOnPiHole != 0
		if inBase {
			res.BlockedBefore++
		}
		if inBase || blocked[cols.URLID[i]] {
			res.BlockedAfter++
		}
	}
	return res
}

// Add accumulates another range's counters.
func (r *ExtensionResult) Add(o ExtensionResult) {
	r.TrackingRequests += o.TrackingRequests
	r.BlockedBefore += o.BlockedBefore
	r.BlockedAfter += o.BlockedAfter
}
