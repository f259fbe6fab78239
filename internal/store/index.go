package store

// This file is the analysis side's answer to the sharded measurement
// engine: a single indexing pass over the dataset that every section
// analyzer shares. The paper's evaluation (Sections V-VII) asks a dozen
// independent questions of the same 457k-request corpus; answering each
// question with its own dataset walk re-classifies every flow against the
// filter lists a dozen times.
//
// BuildIndex is columnar (see columns.go): flows are scanned in parallel
// chunks into interned string tables and typed per-row columns, the
// expensive pure-string work (filter-list matching, eTLD+1) runs once per
// *distinct* URL/host instead of once per flow, and every shared aggregate
// (first parties, Set-Cookie events, per-channel tracking statistics,
// per-run traffic and list-hit counts, the measurement window) is then
// assembled in one deterministic serial fold over the columns — so an
// Index built with any worker count is identical, byte for byte. A flow
// is addressed by its row (its position in dataset order across runs);
// every per-flow question is a column read at that row.

import (
	"context"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// FlowKind is a bit set recording why (and by which list) a flow was
// flagged during indexing. The bits cover both the paper's tracking
// definition (pixel/fingerprint heuristics plus the three Web filter
// lists) and the smart-TV comparison lists of Section V-D, so one
// classification pass serves Table III, the smart-TV comparison, and
// every downstream "is this tracking?" question.
type FlowKind uint32

// FlowKind bits.
const (
	FlowPixel FlowKind = 1 << iota
	FlowFingerprint
	FlowOnEasyList
	FlowOnEasyPrivacy
	FlowOnPiHole
	FlowOnPerflyst
	FlowOnKamran
)

// flowTrackingMask is the paper's tracking definition: any heuristic hit
// or a hit on one of the three Web filter lists. The smart-TV lists are
// comparison baselines and deliberately excluded.
const flowTrackingMask = FlowPixel | FlowFingerprint | FlowOnEasyList | FlowOnEasyPrivacy | FlowOnPiHole

// Tracking reports whether the flow counts as a tracking request under
// the paper's definition (Section V-D).
func (k FlowKind) Tracking() bool { return k&flowTrackingMask != 0 }

// IndexConfig wires the analysis classifiers into BuildIndex without a
// package cycle: the tracking package (which imports store) supplies the
// classification as closures.
//
// The classifier is split: ClassifyURL for bits that are a pure function
// of the URL string (filter-list matches) plus ClassifyFlow for bits that
// need the full flow (response-size and body heuristics). The split lets
// the columnar build evaluate the URL part once per distinct URL, which is
// where nearly all indexing time went.
type IndexConfig struct {
	// ClassifyURL returns the kind bits determined by the URL alone.
	// Evaluated once per distinct URL; must be safe for concurrent use.
	ClassifyURL func(url string) FlowKind
	// ClassifyFlow returns the kind bits that need the whole flow
	// (status, response size, body). Evaluated once per flow; must be
	// safe for concurrent use.
	ClassifyFlow func(f *proxy.Flow) FlowKind
	// KnownTrackerMask excludes flows from first-party candidacy: a flow
	// whose kind intersects the mask is skipped by the Section V-A
	// first-party rule (the filter-list correction for trackers encoded
	// directly into the broadcast signal).
	KnownTrackerMask FlowKind
	// Parallelism bounds the worker goroutines of the chunked column
	// build (<= 1 runs it on the calling goroutine). The assembled index
	// is byte-identical for every value.
	Parallelism int
}

// TimeWindow is the measurement window spanned by the dataset's flows.
type TimeWindow struct {
	Start, End time.Time
}

// Coverage is the analysis side's view of a degraded campaign: how many
// runs actually measured each channel, and how much of the channel list
// the resilient engine had to fail, skip, or quarantine. Section analyzers
// are pure folds over the flows that exist, so partial coverage never
// breaks them — Coverage makes the gaps visible instead of silent.
type Coverage struct {
	// Runs is the number of runs in the dataset.
	Runs int
	// ChannelRuns maps channel name -> runs that measured the channel
	// (ok outcomes; for datasets predating outcome tracking, runs with
	// recorded channel metadata).
	ChannelRuns map[string]int
	// Failed, Skipped, and Quarantined total the non-ok outcome records
	// across all runs.
	Failed, Skipped, Quarantined int
	// Partial lists channels measured by fewer runs than Runs, in
	// canonical (first-appearance) order — including channels that never
	// produced data at all but appear in outcome records. It is empty
	// when every known channel was measured in every run.
	Partial []string
}

// CookieSetEvent is one observed Set-Cookie, attributed to a channel and
// party. It lives in store (rather than the cookies package) so the index
// can collect events during its single pass; internal/cookies aliases it
// as cookies.SetEvent.
type CookieSetEvent struct {
	Run     RunName
	Channel string
	// Party is the eTLD+1 of the setting host.
	Party string
	Host  string
	Name  string
	Value string
	// ThirdParty is true when Party differs from the channel's first party.
	ThirdParty bool
}

// ChannelTracking aggregates tracking per channel — the basis of Fig. 6
// and the channel-level analyses. internal/tracking aliases it as
// tracking.ChannelStats.
type ChannelTracking struct {
	Channel          string
	TrackingRequests int
	Trackers         map[string]struct{} // distinct tracker eTLD+1s
}

// TrackerCount returns the number of distinct trackers contacted.
func (cs *ChannelTracking) TrackerCount() int { return len(cs.Trackers) }

// RunIndex holds one run's share of the index.
type RunIndex struct {
	// PlainRequests/HTTPSRequests split the run's flows by scheme.
	PlainRequests int
	HTTPSRequests int
	// Per-list hit counts and heuristic detections (Table III and the
	// smart-TV list comparison).
	OnPiHole           int
	OnEasyList         int
	OnEasyPrivacy      int
	OnPerflyst         int
	OnKamran           int
	TrackingPixels     int
	FingerprintScripts int
	// SetCookieFlows counts flows carrying at least one Set-Cookie;
	// SetCookieTrackingFlows those among them labeled tracking.
	SetCookieFlows         int
	SetCookieTrackingFlows int
	// RequestsByChannel counts the run's attributed flows per channel.
	RequestsByChannel map[string]int
	// TrackingByChannel counts the run's tracking requests per channel.
	TrackingByChannel map[string]int
	// SetEvents are the run's attributed Set-Cookie observations, in flow
	// order.
	SetEvents []CookieSetEvent
}

// HTTPSShare returns the fraction of the run's requests that were HTTPS.
func (r *RunIndex) HTTPSShare() float64 {
	total := r.PlainRequests + r.HTTPSRequests
	if total == 0 {
		return 0
	}
	return float64(r.HTTPSRequests) / float64(total)
}

// Index is the shared single-pass view of a dataset that the section
// analyzers consume instead of re-walking Dataset.Runs. All exported
// collections are read-only after BuildIndex returns and safe for
// concurrent readers.
type Index struct {
	Dataset *Dataset
	// Window spans the earliest and latest flow timestamps (falling back
	// to the paper's measurement period for flow-less datasets).
	Window TimeWindow
	// FirstParty maps channel name -> first-party eTLD+1 (Section V-A
	// rule with the filter-list correction).
	FirstParty map[string]string
	// Channels is the union of channel names across runs, in dataset
	// order (first appearance wins), matching Dataset.ChannelNames.
	Channels []string
	// Runs holds the per-run aggregates, aligned with Dataset.Runs.
	Runs []RunIndex
	// SetEvents concatenates every run's attributed Set-Cookie events in
	// dataset order.
	SetEvents []CookieSetEvent
	// Coverage reports how completely the runs measured the channel list
	// (always non-nil; see Coverage).
	Coverage *Coverage
	// PerChannelTracking aggregates tracking per channel across runs;
	// only channels with at least one tracking request appear.
	PerChannelTracking map[string]*ChannelTracking

	cols  *Columns
	stats *BuildStats
}

// indexChunk is the flow-count granularity of the parallel column build:
// large enough to amortize scheduling, small enough to balance the tail.
// Chunk boundaries are fixed by this constant alone — never by the worker
// count — which is what keeps chunked results mergeable in deterministic
// order.
const indexChunk = 512

// BuildIndex classifies every distinct URL once, scans the flows into
// interned columns in parallel chunks, and assembles the shared aggregates
// in a single deterministic fold over the columns. A cancelled context
// aborts the build and returns the context's error.
func BuildIndex(ctx context.Context, ds *Dataset, cfg IndexConfig) (*Index, error) {
	cols, cells, stats, err := buildColumns(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Dataset:            ds,
		FirstParty:         make(map[string]string),
		PerChannelTracking: make(map[string]*ChannelTracking),
		cols:               cols,
		stats:              stats,
	}
	// The seeded prefix of the channel table is exactly the metadata
	// channel union in dataset order.
	for id := 0; id < cols.MetaChannels; id++ {
		ix.Channels = append(ix.Channels, cols.Channels.String(int32(id)))
	}

	// The fold below keys every per-channel accumulator by dense ID (slice
	// index) instead of by string, materializing the string-keyed maps
	// once at the end.
	nChan := cols.Channels.Len()
	type fpCand struct {
		t     int64
		party int32
		ok    bool
	}
	best := make([]fpCand, nChan)
	type chanTrack struct {
		requests int
		trackers map[int32]struct{}
	}
	track := make([]chanTrack, nChan)
	var lo, hi time.Time
	row := 0
	for _, run := range ds.Runs {
		ri := RunIndex{
			RequestsByChannel: make(map[string]int),
			TrackingByChannel: make(map[string]int),
		}
		chanRequests := make([]int, nChan)
		chanTracking := make([]int, nChan)
		end := row + len(run.Flows)
		for i := row; i < end; i++ {
			f := cols.Flows[i]
			if lo.IsZero() || f.Time.Before(lo) {
				lo = f.Time
			}
			if f.Time.After(hi) {
				hi = f.Time
			}
			kind := cols.Kind[i]
			if cols.HTTPS[i] {
				ri.HTTPSRequests++
			} else {
				ri.PlainRequests++
			}
			if kind&FlowOnPiHole != 0 {
				ri.OnPiHole++
			}
			if kind&FlowOnEasyList != 0 {
				ri.OnEasyList++
			}
			if kind&FlowOnEasyPrivacy != 0 {
				ri.OnEasyPrivacy++
			}
			if kind&FlowOnPerflyst != 0 {
				ri.OnPerflyst++
			}
			if kind&FlowOnKamran != 0 {
				ri.OnKamran++
			}
			if kind&FlowPixel != 0 {
				ri.TrackingPixels++
			}
			if kind&FlowFingerprint != 0 {
				ri.FingerprintScripts++
			}
			if cols.HasCookies[i] {
				ri.SetCookieFlows++
				if kind.Tracking() {
					ri.SetCookieTrackingFlows++
				}
			}
			pid := cols.PartyID[i]
			ch := cols.ChannelID[i]
			if ch < 0 {
				continue
			}
			chanRequests[ch]++
			if kind&cfg.KnownTrackerMask == 0 {
				ts := cols.TimeNS[i]
				if b := &best[ch]; !b.ok || ts < b.t {
					*b = fpCand{t: ts, party: pid, ok: true}
				}
			}
			if kind.Tracking() {
				t := &track[ch]
				if t.trackers == nil {
					t.trackers = make(map[int32]struct{})
				}
				t.requests++
				t.trackers[pid] = struct{}{}
				chanTracking[ch]++
			}
			for a, b := cols.CookieOff[i], cols.CookieOff[i+1]; a < b; a++ {
				ri.SetEvents = append(ri.SetEvents, CookieSetEvent{
					Run:     run.Name,
					Channel: f.Channel,
					Party:   cols.Parties.String(pid),
					Host:    cols.Hosts.String(cols.HostID[i]),
					Name:    cells[a].name,
					Value:   cells[a].value,
				})
			}
		}
		row = end
		for id, n := range chanRequests {
			if n > 0 {
				ri.RequestsByChannel[cols.Channels.String(int32(id))] = n
			}
		}
		for id, n := range chanTracking {
			if n > 0 {
				ri.TrackingByChannel[cols.Channels.String(int32(id))] = n
			}
		}
		ix.Runs = append(ix.Runs, ri)
	}
	if lo.IsZero() {
		lo = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
		hi = time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC)
	}
	ix.Window = TimeWindow{Start: lo, End: hi}
	ix.Coverage = buildCoverage(ds)
	for id := range best {
		if best[id].ok {
			ix.FirstParty[cols.Channels.String(int32(id))] = cols.Parties.String(best[id].party)
		}
	}
	for id := range track {
		t := &track[id]
		if t.requests == 0 {
			continue
		}
		cs := &ChannelTracking{
			Channel:          cols.Channels.String(int32(id)),
			TrackingRequests: t.requests,
			Trackers:         make(map[string]struct{}, len(t.trackers)),
		}
		for pid := range t.trackers {
			cs.Trackers[cols.Parties.String(pid)] = struct{}{}
		}
		ix.PerChannelTracking[cs.Channel] = cs
	}
	// Third-party flags resolve only after the full first-party map is
	// known; patch them in per run, then expose the concatenation.
	for r := range ix.Runs {
		events := ix.Runs[r].SetEvents
		for j := range events {
			fp := ix.FirstParty[events[j].Channel]
			events[j].ThirdParty = fp != "" && events[j].Party != fp
		}
		ix.SetEvents = append(ix.SetEvents, events...)
	}
	return ix, nil
}

// buildCoverage folds every run's outcome records (falling back to
// recorded channel metadata for pre-outcome datasets) into the per-channel
// coverage report.
func buildCoverage(ds *Dataset) *Coverage {
	cov := &Coverage{Runs: len(ds.Runs), ChannelRuns: make(map[string]int)}
	var order []string
	seen := make(map[string]struct{})
	note := func(name string) {
		if _, ok := seen[name]; !ok {
			seen[name] = struct{}{}
			order = append(order, name)
		}
	}
	for _, run := range ds.Runs {
		if len(run.Outcomes) > 0 {
			for _, o := range run.Outcomes {
				note(o.Channel)
				switch o.Status {
				case OutcomeOK:
					cov.ChannelRuns[o.Channel]++
				case OutcomeFailed:
					cov.Failed++
				case OutcomeSkipped:
					cov.Skipped++
				case OutcomeQuarantined:
					cov.Quarantined++
				}
			}
			continue
		}
		for _, c := range run.Channels {
			note(c.Name)
			cov.ChannelRuns[c.Name]++
		}
	}
	for _, name := range order {
		if cov.ChannelRuns[name] < cov.Runs {
			cov.Partial = append(cov.Partial, name)
		}
	}
	return cov
}

// Columns exposes the per-row columns for range-scanning section
// analyzers: a flow's row is its only address.
func (ix *Index) Columns() *Columns { return ix.cols }

// BuildStats reports how the columnar build ran. Telemetry only —
// carries no analysis data.
func (ix *Index) BuildStats() *BuildStats { return ix.stats }

// FlowCount returns the number of indexed flows.
func (ix *Index) FlowCount() int { return ix.cols.Rows() }
