package tracking

import (
	"net/url"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
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

// ScanLeaks searches rows [lo, hi) of the index (dataset order — runs
// concatenated, flows in run order) for technical and behavioral data.
// Behavioral needles (show title, genre) come from the dataset's channel
// metadata. Only attributed flows are searched; first-party leaks are
// reported too, and Summarize separates them. The receiving party is the
// row's interned eTLD+1. Scans of consecutive row ranges, concatenated in
// range order, equal the scan of their union, so a caller can fan fixed
// ranges out over workers.
func ScanLeaks(ix *store.Index, needles DeviceNeedles, lo, hi int) []Leak {
	cols := ix.Columns()
	ds := ix.Dataset
	var out []Leak
	terms := needles.terms()
	for i := lo; i < hi; i++ {
		f := cols.Flows[i]
		if f.Channel == "" {
			continue
		}
		hay := flowPayload(f)
		if hay == "" {
			continue
		}
		party := cols.Party(i)
		run := cols.RunName(i)
		for _, n := range terms {
			if n.term != "" && strings.Contains(hay, n.term) {
				out = append(out, Leak{
					Kind: LeakTechnical, Keyword: n.label,
					Channel: f.Channel, Party: party, Run: run,
				})
			}
		}
		info := ds.ChannelInfo(f.Channel)
		if info != nil {
			if info.Show != "" && strings.Contains(hay, info.Show) {
				out = append(out, Leak{
					Kind: LeakBehavioral, Keyword: "show",
					Channel: f.Channel, Party: party, Run: run,
				})
			}
			if info.Genre != "" && strings.Contains(hay, info.Genre) {
				out = append(out, Leak{
					Kind: LeakBehavioral, Keyword: "genre",
					Channel: f.Channel, Party: party, Run: run,
				})
			}
		}
	}
	return out
}

// flowPayload is the searched text: decoded query plus request body.
func flowPayload(f *proxy.Flow) string {
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
