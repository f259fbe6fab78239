package hbbtvlab

import (
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/etld"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// referenceIndex is the row-by-row oracle of store.BuildIndex: every
// aggregate the index exports, folded serially over the dataset's flows,
// with each flow's values computed directly — its URL and host strings,
// the eTLD+1 of the host, and both classifiers' kind bits — where the
// index interns them into columns and classifies each distinct URL once.
// Coverage is left out: the index computes it from the outcome records
// alone, and internal/store tests it. The HTML documents are listed row by
// row with each row's own body.
type referenceIndex struct {
	FirstParty         map[string]string
	Channels           []string
	Window             store.TimeWindow
	Runs               []store.RunIndex
	SetEvents          []store.CookieSetEvent
	PerChannelTracking map[string]*store.ChannelTracking

	// Row-aligned views, in dataset order (runs concatenated).
	Run   []store.RunName
	URL   []string
	Host  []string
	Party []string
	Kind  []store.FlowKind

	// DocRows lists the rows whose response is an HTML document (status
	// 200, media type text/html, a body); DocBody holds each one's body.
	DocRows []int32
	DocBody []string
}

// buildReferenceIndex folds ds into a referenceIndex under cfg's
// classifiers and known-tracker mask.
func buildReferenceIndex(ds *store.Dataset, cfg store.IndexConfig) *referenceIndex {
	ref := &referenceIndex{
		FirstParty:         make(map[string]string),
		PerChannelTracking: make(map[string]*store.ChannelTracking),
	}
	type fpCand struct {
		t     int64
		party string
	}
	best := make(map[string]fpCand)
	seenChan := make(map[string]bool)
	var lo, hi time.Time
	for _, run := range ds.Runs {
		ri := store.RunIndex{
			RequestsByChannel: make(map[string]int),
			TrackingByChannel: make(map[string]int),
		}
		for _, c := range run.Channels {
			if !seenChan[c.Name] {
				seenChan[c.Name] = true
				ref.Channels = append(ref.Channels, c.Name)
			}
		}
		for _, f := range run.Flows {
			url := f.URL.String()
			host := f.Host()
			party := etld.MustRegistrableDomain(host)
			var kind store.FlowKind
			if cfg.ClassifyFlow != nil {
				kind = cfg.ClassifyFlow(f)
			}
			if cfg.ClassifyURL != nil {
				kind |= cfg.ClassifyURL(url)
			}
			if f.StatusCode == 200 && f.ContentType() == "text/html" && len(f.ResponseBody) > 0 {
				ref.DocRows = append(ref.DocRows, int32(len(ref.Run)))
				ref.DocBody = append(ref.DocBody, string(f.ResponseBody))
			}
			ref.Run = append(ref.Run, run.Name)
			ref.URL = append(ref.URL, url)
			ref.Host = append(ref.Host, host)
			ref.Party = append(ref.Party, party)
			ref.Kind = append(ref.Kind, kind)

			if lo.IsZero() || f.Time.Before(lo) {
				lo = f.Time
			}
			if f.Time.After(hi) {
				hi = f.Time
			}
			if f.HTTPS {
				ri.HTTPSRequests++
			} else {
				ri.PlainRequests++
			}
			for _, c := range []struct {
				bit store.FlowKind
				n   *int
			}{
				{store.FlowOnPiHole, &ri.OnPiHole},
				{store.FlowOnEasyList, &ri.OnEasyList},
				{store.FlowOnEasyPrivacy, &ri.OnEasyPrivacy},
				{store.FlowOnPerflyst, &ri.OnPerflyst},
				{store.FlowOnKamran, &ri.OnKamran},
				{store.FlowPixel, &ri.TrackingPixels},
				{store.FlowFingerprint, &ri.FingerprintScripts},
			} {
				if kind&c.bit != 0 {
					*c.n++
				}
			}
			cookies := f.SetCookies()
			if len(cookies) > 0 {
				ri.SetCookieFlows++
				if kind.Tracking() {
					ri.SetCookieTrackingFlows++
				}
			}
			if f.Channel == "" {
				continue
			}
			ri.RequestsByChannel[f.Channel]++
			if kind&cfg.KnownTrackerMask == 0 {
				ts := f.Time.UnixNano()
				if b, ok := best[f.Channel]; !ok || ts < b.t {
					best[f.Channel] = fpCand{t: ts, party: party}
				}
			}
			if kind.Tracking() {
				cs := ref.PerChannelTracking[f.Channel]
				if cs == nil {
					cs = &store.ChannelTracking{Channel: f.Channel, Trackers: make(map[string]struct{})}
					ref.PerChannelTracking[f.Channel] = cs
				}
				cs.TrackingRequests++
				cs.Trackers[party] = struct{}{}
				ri.TrackingByChannel[f.Channel]++
			}
			for _, c := range cookies {
				ri.SetEvents = append(ri.SetEvents, store.CookieSetEvent{
					Run: run.Name, Channel: f.Channel, Party: party, Host: host,
					Name: c.Name, Value: c.Value,
				})
			}
		}
		ref.Runs = append(ref.Runs, ri)
	}
	if lo.IsZero() {
		lo = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
		hi = time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC)
	}
	ref.Window = store.TimeWindow{Start: lo, End: hi}
	for ch, c := range best {
		ref.FirstParty[ch] = c.party
	}
	// A cookie is third-party once the whole first-party map is known.
	for r := range ref.Runs {
		events := ref.Runs[r].SetEvents
		for j := range events {
			fp := ref.FirstParty[events[j].Channel]
			events[j].ThirdParty = fp != "" && events[j].Party != fp
		}
		ref.SetEvents = append(ref.SetEvents, events...)
	}
	return ref
}
