// Package cookies implements the cookie analyses of Section V-C: general
// cookie usage, Cookiepedia-style purpose classification, the identifier
// heuristic (10-25 characters, not a Unix timestamp in the measurement
// window), third-party cookie usage per measurement run (Table II), the
// long-tail distribution of cookie-using third parties (Fig. 5), and
// cookie-syncing detection (two parties exchanging an identifier through a
// redirect or parameter).
package cookies

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/stats"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Purpose is a cookie purpose category, following Cookiepedia's taxonomy.
type Purpose string

// Cookie purposes.
const (
	PurposeNecessary     Purpose = "Strictly Necessary"
	PurposeFunctionality Purpose = "Functionality"
	PurposePerformance   Purpose = "Performance"
	PurposeTargeting     Purpose = "Targeting/Advertising"
	PurposeUnknown       Purpose = "Unknown"
)

// purposeDB is the Cookiepedia substitute: a name-pattern database built
// from widely-used Web cookie names. HbbTV-specific cookie names are not
// in it — which is why classification coverage in the HbbTV ecosystem
// (20.5%) falls far short of the Web (57%).
var purposeDB = map[string]Purpose{
	// Google Analytics / Tag Manager.
	"_ga": PurposePerformance, "_gid": PurposePerformance,
	"_gat": PurposePerformance, "_gcl_au": PurposeTargeting,
	"_utma": PurposePerformance, "_utmb": PurposePerformance,
	"_utmz": PurposePerformance,
	// Ad ecosystem.
	"ide": PurposeTargeting, "dsid": PurposeTargeting,
	"test_cookie": PurposeTargeting, "uuid2": PurposeTargeting,
	"anj": PurposeTargeting, "tuuid": PurposeTargeting,
	"criteo_id": PurposeTargeting, "cto_bundle": PurposeTargeting,
	"tluid": PurposeTargeting, "adsrv": PurposeTargeting,
	"adform_uid": PurposeTargeting,
	// AT Internet (xiti).
	"xtuid": PurposePerformance, "xtvrn": PurposePerformance,
	"atuserid": PurposePerformance,
	// Webtrekk / etracker / INFOnline.
	"wt3_eid": PurposePerformance, "wt3_sid": PurposePerformance,
	"et_coid": PurposePerformance, "ioma.sid": PurposePerformance,
	"i00": PurposePerformance,
	// CMP / consent state.
	"euconsent-v2": PurposeNecessary, "consentuuid": PurposeNecessary,
	"cmpconsent": PurposeNecessary, "consent": PurposeNecessary,
	"oil_data": PurposeNecessary,
	// Generic session/LB names.
	"phpsessid": PurposeNecessary, "jsessionid": PurposeNecessary,
	"session": PurposeNecessary, "lb": PurposeNecessary,
	"awselb": PurposeNecessary,
	// Preferences.
	"lang": PurposeFunctionality, "language": PurposeFunctionality,
	"tz": PurposeFunctionality, "volume": PurposeFunctionality,
}

// ClassifyPurpose looks a cookie name up in the purpose database. The
// second return reports whether the name was known (classification
// coverage). Site-scoped variants of known names ("uuid2_<site>") resolve
// to their base name, as Cookiepedia's fuzzy matching does.
func ClassifyPurpose(name string) (Purpose, bool) {
	low := strings.ToLower(name)
	if p, ok := purposeDB[low]; ok {
		return p, true
	}
	if i := strings.IndexByte(low, '_'); i > 0 {
		if p, ok := purposeDB[low[:i]]; ok {
			return p, true
		}
	}
	return PurposeUnknown, false
}

// IsLikelyID implements the adapted Acar et al. heuristic the paper uses:
// a cookie value is a potential identifier when it is 10-25 characters
// long and is not a valid Unix timestamp inside the measurement period.
func IsLikelyID(value string, windowStart, windowEnd time.Time) bool {
	if len(value) < 10 || len(value) > 25 {
		return false
	}
	if ts, err := strconv.ParseInt(value, 10, 64); err == nil {
		t := time.Unix(ts, 0)
		if !t.Before(windowStart) && !t.After(windowEnd) {
			return false
		}
		// Millisecond timestamps are also common.
		tm := time.Unix(0, ts*int64(time.Millisecond))
		if !tm.Before(windowStart) && !tm.After(windowEnd) {
			return false
		}
	}
	return true
}

// IsLikelyIDLenOnly is the heuristic without the timestamp exclusion —
// the ablation variant (BenchmarkIDHeuristic) showing why the paper added
// the exclusion.
func IsLikelyIDLenOnly(value string) bool {
	return len(value) >= 10 && len(value) <= 25
}

// SetEvent is one observed Set-Cookie, attributed to a channel and party.
// It is an alias of store.CookieSetEvent: the single-pass dataset index
// (store.BuildIndex) collects the events as Index.SetEvents.
type SetEvent = store.CookieSetEvent

// DistinctCookies counts distinct (party, name) cookies among events.
func DistinctCookies(events []SetEvent) int {
	seen := make(map[[2]string]struct{})
	for _, e := range events {
		seen[[2]string{e.Party, e.Name}] = struct{}{}
	}
	return len(seen)
}

// FirstThirdCounts returns the number of distinct first-party and
// third-party (channel, party, name) cookie observations, matching Table
// I's convention where a cookie can be first-party on one channel and
// third-party on another.
func FirstThirdCounts(events []SetEvent) (first, third int) {
	fp := make(map[[2]string]struct{})
	tp := make(map[[2]string]struct{})
	for _, e := range events {
		key := [2]string{e.Party, e.Name}
		if e.ThirdParty {
			tp[key] = struct{}{}
		} else {
			fp[key] = struct{}{}
		}
	}
	return len(fp), len(tp)
}

// ThirdPartyUsage summarizes third-party cookie-setting for one run —
// one row of Table II.
type ThirdPartyUsage struct {
	Run       store.RunName
	Parties   int // distinct third parties that set cookies
	Cookies   int // distinct third-party (party, name, channel) cookies
	PerParty  stats.Desc
	PerChan   stats.Desc
	ByChannel map[string]int
}

// AnalyzeThirdParty computes Table II's row for the given events.
func AnalyzeThirdParty(run store.RunName, events []SetEvent) ThirdPartyUsage {
	parties := make(map[string]map[[2]string]struct{}) // party -> set of (channel,name)
	byChannel := make(map[string]map[[2]string]struct{})
	cookieCount := 0
	seen := make(map[[3]string]struct{})
	for _, e := range events {
		if !e.ThirdParty || e.Run != run {
			continue
		}
		key := [3]string{e.Channel, e.Party, e.Name}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		cookieCount++
		if parties[e.Party] == nil {
			parties[e.Party] = make(map[[2]string]struct{})
		}
		parties[e.Party][[2]string{e.Channel, e.Name}] = struct{}{}
		if byChannel[e.Channel] == nil {
			byChannel[e.Channel] = make(map[[2]string]struct{})
		}
		byChannel[e.Channel][[2]string{e.Party, e.Name}] = struct{}{}
	}
	u := ThirdPartyUsage{
		Run:       run,
		Parties:   len(parties),
		Cookies:   cookieCount,
		ByChannel: make(map[string]int, len(byChannel)),
	}
	// Iterate sorted keys: stats.Describe sums floats, so map-order
	// iteration would let the SD drift by an ulp between runs.
	var perParty []float64
	for _, p := range sortedKeys(parties) {
		perParty = append(perParty, float64(len(parties[p])))
	}
	var perChan []float64
	for _, ch := range sortedKeys(byChannel) {
		set := byChannel[ch]
		perChan = append(perChan, float64(len(set)))
		u.ByChannel[ch] = len(set)
	}
	u.PerParty = stats.Describe(perParty)
	u.PerChan = stats.Describe(perChan)
	return u
}

// PartyChannelCounts returns, per third party, the number of distinct
// channels it set cookies on — the Fig. 5 long-tail distribution.
func PartyChannelCounts(events []SetEvent) map[string]int {
	chans := make(map[string]map[string]struct{})
	for _, e := range events {
		if !e.ThirdParty {
			continue
		}
		if chans[e.Party] == nil {
			chans[e.Party] = make(map[string]struct{})
		}
		chans[e.Party][e.Channel] = struct{}{}
	}
	out := make(map[string]int, len(chans))
	for p, set := range chans {
		out[p] = len(set)
	}
	return out
}

// PurposeDistribution counts distinct cookies per purpose category for one
// run — the supplementary-material table behind the finding that color-
// button runs show more classifiable (and more "Targeting") cookies.
type PurposeDistribution struct {
	Run store.RunName
	// ByPurpose counts distinct (party, name) cookies per category.
	ByPurpose map[Purpose]int
	// Classified / Total give the coverage ratio.
	Classified int
	Total      int
}

// CoverageShare returns the classified fraction.
func (d PurposeDistribution) CoverageShare() float64 {
	if d.Total == 0 {
		return 0
	}
	return float64(d.Classified) / float64(d.Total)
}

// AnalyzePurposes computes the per-run purpose distribution from events.
func AnalyzePurposes(run store.RunName, events []SetEvent) PurposeDistribution {
	d := PurposeDistribution{Run: run, ByPurpose: make(map[Purpose]int)}
	seen := make(map[[2]string]struct{})
	for _, e := range events {
		if e.Run != run {
			continue
		}
		key := [2]string{e.Party, e.Name}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		d.Total++
		if p, known := ClassifyPurpose(e.Name); known {
			d.Classified++
			d.ByPurpose[p]++
		} else {
			d.ByPurpose[PurposeUnknown]++
		}
	}
	return d
}

// SyncEvent is one detected cookie-sync: an identifier minted by FromParty
// observed in a request to ToParty.
type SyncEvent struct {
	FromParty string
	ToParty   string
	Value     string
	Channel   string
	Run       store.RunName
}

// MintedIDs indexes potential-identifier cookie values by the parties that
// minted them — step one of the syncing definition.
func MintedIDs(events []SetEvent, windowStart, windowEnd time.Time) map[string][]string {
	idOwners := make(map[string][]string) // value -> parties that set it
	for _, e := range events {
		if !IsLikelyID(e.Value, windowStart, windowEnd) {
			continue
		}
		found := false
		for _, p := range idOwners[e.Value] {
			if p == e.Party {
				found = true
				break
			}
		}
		if !found {
			idOwners[e.Value] = append(idOwners[e.Value], e.Party)
		}
	}
	return idOwners
}

// CarriedIDs finds, for the payloads [lo, hi) of the index, the minted
// identifiers (idOwners, from MintedIDs) each one carries, and writes them
// to carried[p] in token order. Identifiers travel as URL/body parameter
// values, so the payload's query and body are matched as whole tokens
// against the minted-ID index rather than scanned for every known value
// as a substring. Each payload writes its own slot.
func CarriedIDs(idOwners map[string][]string, ix *store.Index, carried [][]string, lo, hi int) {
	payloads := ix.Columns().Payloads
	for p := lo; p < hi; p++ {
		var ids []string
		match := func(token string) {
			if _, ok := idOwners[token]; ok {
				ids = append(ids, token)
			}
		}
		// The query and the body are separate token streams: no token
		// spans the boundary between them.
		forEachToken(payloads[p].Query, match)
		forEachToken(payloads[p].Body, match)
		carried[p] = ids
	}
}

// ScanSyncing finds identifier cookie values (idOwners, from MintedIDs)
// that rows [lo, hi) of the index transmitted to a different party in a
// URL or request body — step two of the paper's syncing definition. The
// identifiers a row's payload carries come from carried, the per-payload
// table CarriedIDs fills; the receiving party is the row's own. It dedups
// within the range only: ranges merge in row order with MergeSyncEvents,
// which re-applies the global first-occurrence dedup, so the merge of
// consecutive ranges equals the scan of their union.
func ScanSyncing(idOwners map[string][]string, carried [][]string, ix *store.Index, lo, hi int) []SyncEvent {
	cols := ix.Columns()
	var out []SyncEvent
	seen := make(map[[3]string]struct{})
	for i := lo; i < hi; i++ {
		p := cols.PayloadID[i]
		if p < 0 || len(carried[p]) == 0 {
			continue
		}
		target := cols.Party(i)
		for _, token := range carried[p] {
			for _, owner := range idOwners[token] {
				if owner == target {
					continue
				}
				key := [3]string{owner, target, token}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, SyncEvent{
					FromParty: owner,
					ToParty:   target,
					Value:     token,
					Channel:   cols.Channels.String(cols.ChannelID[i]),
					Run:       cols.RunName(i),
				})
			}
		}
	}
	return out
}

// MergeSyncEvents concatenates per-chunk ScanSyncing output in chunk
// order, dropping later duplicates of the same (owner, target, value)
// triple — the serial dedup semantics, where the earliest flow wins the
// attribution.
func MergeSyncEvents(parts [][]SyncEvent) []SyncEvent {
	var out []SyncEvent
	seen := make(map[[3]string]struct{})
	for _, p := range parts {
		for _, s := range p {
			key := [3]string{s.FromParty, s.ToParty, s.Value}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, s)
		}
	}
	return out
}

// forEachToken calls fn for every maximal alphanumeric run in s — the
// token shape identifiers take inside query strings and JSON bodies.
func forEachToken(s string, fn func(token string)) {
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		isWord := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-'
		if isWord {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// PotentialIDs counts distinct cookie values among events that pass the ID
// heuristic (the paper identified 14,236 such values).
func PotentialIDs(events []SetEvent, windowStart, windowEnd time.Time) int {
	seen := make(map[string]struct{})
	for _, e := range events {
		if IsLikelyID(e.Value, windowStart, windowEnd) {
			seen[e.Value] = struct{}{}
		}
	}
	return len(seen)
}
