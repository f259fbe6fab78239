package tracking

import (
	"net/url"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file implements the Section V-B analysis of personal data collected
// by HbbTV channels: a keyword search over GET/POST payloads for technical
// data (device identity) and behavioral data (aired program and genre).

// LeakKind classifies leaked data.
type LeakKind string

// Leak kinds.
const (
	LeakTechnical  LeakKind = "technical"
	LeakBehavioral LeakKind = "behavioral"
)

// Leak is one observed transmission of personal data to some party.
type Leak struct {
	Kind    LeakKind
	Keyword string // which needle matched
	Channel string
	Party   string // receiving eTLD+1
	Run     store.RunName
}

// DeviceNeedles are the technical-data search terms for the study's TV.
// The paper searched for manufacturer, model, OS, language, local time,
// and addresses.
type DeviceNeedles struct {
	Manufacturer string
	Model        string
	OS           string
	Language     string
}

// LGNeedles matches the study device.
var LGNeedles = DeviceNeedles{
	Manufacturer: "LGE",
	Model:        "43UK6300LLB",
	OS:           "WEBOS4.0",
	Language:     "German",
}

// needle is one technical-data search term and the label a match reports.
type needle struct{ label, term string }

// terms returns the technical search terms in a fixed order, so one flow's
// technical leaks come out in the same order on every scan.
func (n DeviceNeedles) terms() []needle {
	return []needle{
		{"manufacturer", n.Manufacturer},
		{"model", n.Model},
		{"os", n.OS},
		{"language", n.Language},
	}
}

// LeakSearch is the Section V-B search over an index's rows, done once per
// distinct value instead of once per row. Each payload (decoded query plus
// request body) is built and searched for the technical terms once; each
// channel's metadata resolves once per channel ID; and each (payload,
// channel) pair that some attributed row carries is searched for the
// channel's show and genre once. A row's leaks then come from two bit
// sets. The steps run in order, each over fixed chunks the caller may fan
// out: MatchPayloads over payload IDs, RowPairs over rows, AddPairs to
// merge their output, MatchPairs over pair IDs, and Scan over rows.
type LeakSearch struct {
	cols  *store.Columns
	terms []needle
	hay   []string // per payload: the searched text
	tech  []uint8  // per payload: bit t set when terms[t] matched
	// pairID numbers the (payload, channel) pairs in first-occurrence
	// row order; behav holds each pair's behavioral bits.
	pairID map[LeakPair]int32
	pairs  []LeakPair
	behav  []uint8
}

// LeakPair is a (payload ID, channel ID) pair of an attributed row.
type LeakPair struct{ Payload, Channel int32 }

// Behavioral bits of a pair.
const (
	leakShow uint8 = 1 << iota
	leakGenre
)

// NewLeakSearch prepares the search of ix for the needles. Behavioral
// needles (show title, genre) come from the dataset's channel metadata.
func NewLeakSearch(ix *store.Index, needles DeviceNeedles) *LeakSearch {
	cols := ix.Columns()
	return &LeakSearch{
		cols:   cols,
		terms:  needles.terms(),
		hay:    make([]string, len(cols.Payloads)),
		tech:   make([]uint8, len(cols.Payloads)),
		pairID: make(map[LeakPair]int32),
	}
}

// Payloads returns the number of distinct payloads, the ID range of
// MatchPayloads.
func (s *LeakSearch) Payloads() int { return len(s.hay) }

// MatchPayloads builds the text of payloads [lo, hi) and searches it for
// the technical terms.
func (s *LeakSearch) MatchPayloads(lo, hi int) {
	for p := lo; p < hi; p++ {
		hay := payloadText(s.cols.Payloads[p])
		s.hay[p] = hay
		for t, n := range s.terms {
			if n.term != "" && strings.Contains(hay, n.term) {
				s.tech[p] |= 1 << t
			}
		}
	}
}

// RowPairs returns the distinct (payload, channel) pairs of the attributed
// rows in [lo, hi) that carry a payload, in first-occurrence order.
func (s *LeakSearch) RowPairs(lo, hi int) []LeakPair {
	seen := make(map[LeakPair]struct{})
	var out []LeakPair
	for i := lo; i < hi; i++ {
		k := LeakPair{s.cols.PayloadID[i], s.cols.ChannelID[i]}
		if k.Payload < 0 || k.Channel < 0 {
			continue
		}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// AddPairs numbers the pairs of RowPairs outputs, taken in row order, and
// returns the number of distinct pairs: the ID range of MatchPairs.
func (s *LeakSearch) AddPairs(parts [][]LeakPair) int {
	for _, part := range parts {
		for _, k := range part {
			if _, ok := s.pairID[k]; !ok {
				s.pairID[k] = int32(len(s.pairs))
				s.pairs = append(s.pairs, k)
			}
		}
	}
	s.behav = make([]uint8, len(s.pairs))
	return len(s.pairs)
}

// MatchPairs searches the payloads of pairs [lo, hi) for their channel's
// show and genre. MatchPayloads must have run over every payload.
func (s *LeakSearch) MatchPairs(lo, hi int) {
	for j := lo; j < hi; j++ {
		k := s.pairs[j]
		info := s.cols.ChannelInfo(k.Channel)
		if info == nil {
			continue
		}
		hay := s.hay[k.Payload]
		if info.Show != "" && strings.Contains(hay, info.Show) {
			s.behav[j] |= leakShow
		}
		if info.Genre != "" && strings.Contains(hay, info.Genre) {
			s.behav[j] |= leakGenre
		}
	}
}

// Scan reports the leaks of rows [lo, hi) of the index (dataset order —
// runs concatenated, flows in run order): technical leaks in term order,
// then the show, then the genre. Only attributed flows are searched;
// first-party leaks are reported too, and Summarize separates them. The
// receiving party is the row's interned eTLD+1. Scans of consecutive row
// ranges, concatenated in range order, equal the scan of their union, so
// a caller can fan fixed ranges out over workers.
func (s *LeakSearch) Scan(lo, hi int) []Leak {
	cols := s.cols
	var out []Leak
	for i := lo; i < hi; i++ {
		k := LeakPair{cols.PayloadID[i], cols.ChannelID[i]}
		if k.Payload < 0 || k.Channel < 0 {
			continue
		}
		tech, behav := s.tech[k.Payload], s.behav[s.pairID[k]]
		if tech|behav == 0 {
			continue
		}
		leak := func(kind LeakKind, keyword string) {
			out = append(out, Leak{
				Kind: kind, Keyword: keyword, Channel: cols.Channels.String(k.Channel),
				Party: cols.Party(i), Run: cols.RunName(i),
			})
		}
		for t, n := range s.terms {
			if tech&(1<<t) != 0 {
				leak(LeakTechnical, n.label)
			}
		}
		if behav&leakShow != 0 {
			leak(LeakBehavioral, "show")
		}
		if behav&leakGenre != 0 {
			leak(LeakBehavioral, "genre")
		}
	}
	return out
}

// payloadText is the searched text: decoded query plus request body.
func payloadText(p store.Payload) string {
	var sb strings.Builder
	if q := p.Query; q != "" {
		if dec, err := url.QueryUnescape(q); err == nil {
			sb.WriteString(dec)
		} else {
			sb.WriteString(q)
		}
	}
	if p.Body != "" {
		sb.WriteByte('\n')
		sb.WriteString(p.Body)
	}
	return sb.String()
}

// LeakSummary aggregates ScanLeaks output into the paper's headline
// numbers.
type LeakSummary struct {
	// TechnicalChannels counts channels leaking device data.
	TechnicalChannels int
	// TechnicalParties counts distinct third parties receiving device data.
	TechnicalParties int
	// BehavioralChannels counts channels leaking the watched genre/show.
	BehavioralChannels int
	// RequestsWithPersonalData counts leaks, not flows: one per needle
	// matched in a flow, so a flow carrying the model and the genre counts
	// twice. The paper counts requests (EXPERIMENTS.md, Section V-B).
	RequestsWithPersonalData int
}

// Summarize rolls leaks up. firstParty distinguishes third-party receivers.
func Summarize(leaks []Leak, firstParty map[string]string) LeakSummary {
	techChans := map[string]struct{}{}
	techParties := map[string]struct{}{}
	behChans := map[string]struct{}{}
	for _, l := range leaks {
		third := firstParty[l.Channel] != "" && l.Party != firstParty[l.Channel]
		switch l.Kind {
		case LeakTechnical:
			techChans[l.Channel] = struct{}{}
			if third {
				techParties[l.Party] = struct{}{}
			}
		case LeakBehavioral:
			if third {
				behChans[l.Channel] = struct{}{}
			}
		}
	}
	return LeakSummary{
		TechnicalChannels:        len(techChans),
		TechnicalParties:         len(techParties),
		BehavioralChannels:       len(behChans),
		RequestsWithPersonalData: len(leaks),
	}
}
