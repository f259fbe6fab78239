package store

// The original row-oriented BuildIndex, retained verbatim as the oracle
// for the columnar differential suite (columnar_equivalence_test.go at the
// repo root): it materializes one flowMeta struct — four strings and a
// cookie slice — per flow and classifies every flow individually, exactly
// as the index worked before the struct-of-arrays refactor. Production
// callers use BuildIndex; this implementation exists so equivalence is
// checked against the real historical behavior rather than a
// reimplementation of it.

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/etld"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// flowMeta is the per-flow result of the reference classification phase:
// everything derivable from the flow alone, stored row-oriented.
type flowMeta struct {
	url     string
	host    string
	party   string
	kind    FlowKind
	cookies []*http.Cookie
}

// BuildIndexReference builds an Index with the pre-columnar row-oriented
// pipeline. The returned index answers every accessor and holds every
// exported aggregate exactly as BuildIndex does — the differential suite
// asserts deep equality between the two. Both classifiers are evaluated
// per flow here (the reference has no memoization).
func BuildIndexReference(ctx context.Context, ds *Dataset, cfg IndexConfig) (*Index, error) {
	var flows []*proxy.Flow
	for _, r := range ds.Runs {
		flows = append(flows, r.Flows...)
	}
	meta := make([]flowMeta, len(flows))

	classify := func(i int) {
		f := flows[i]
		m := &meta[i]
		m.url = f.URL.String()
		m.host = f.Host()
		m.party = etld.MustRegistrableDomain(m.host)
		if cfg.ClassifyFlow != nil {
			m.kind = cfg.ClassifyFlow(f)
		}
		if cfg.ClassifyURL != nil {
			m.kind |= cfg.ClassifyURL(m.url)
		}
		m.cookies = f.SetCookies()
	}

	workers := cfg.Parallelism
	if max := (len(flows) + indexChunk - 1) / indexChunk; workers > max {
		workers = max
	}
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					lo := int(next.Add(1)-1) * indexChunk
					if lo >= len(flows) {
						return
					}
					hi := lo + indexChunk
					if hi > len(flows) {
						hi = len(flows)
					}
					for i := lo; i < hi; i++ {
						classify(i)
					}
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range flows {
			if i%indexChunk == 0 && ctx.Err() != nil {
				break
			}
			classify(i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Serial assembly in dataset order: every aggregate below is a pure
	// fold over (flows, meta), so the index is independent of the worker
	// count above.
	ix := &Index{
		Dataset:            ds,
		FirstParty:         make(map[string]string),
		PerChannelTracking: make(map[string]*ChannelTracking),
		FlowsByParty:       make(map[string][]*proxy.Flow),
		flowIdx:            make(map[*proxy.Flow]int32, len(flows)),
		meta:               meta,
	}
	type fpCand struct {
		t     int64
		party string
	}
	best := make(map[string]fpCand)
	seenChan := make(map[string]struct{})
	var lo, hi time.Time
	i := int32(0)
	for _, run := range ds.Runs {
		ri := RunIndex{
			FlowsByChannel:    make(map[string][]*proxy.Flow),
			TrackingByChannel: make(map[string]int),
		}
		for _, c := range run.Channels {
			if _, ok := seenChan[c.Name]; !ok {
				seenChan[c.Name] = struct{}{}
				ix.Channels = append(ix.Channels, c.Name)
			}
		}
		for _, f := range run.Flows {
			m := &meta[i]
			ix.flowIdx[f] = i
			i++
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
			if m.kind&FlowOnPiHole != 0 {
				ri.OnPiHole++
			}
			if m.kind&FlowOnEasyList != 0 {
				ri.OnEasyList++
			}
			if m.kind&FlowOnEasyPrivacy != 0 {
				ri.OnEasyPrivacy++
			}
			if m.kind&FlowOnPerflyst != 0 {
				ri.OnPerflyst++
			}
			if m.kind&FlowOnKamran != 0 {
				ri.OnKamran++
			}
			if m.kind&FlowPixel != 0 {
				ri.TrackingPixels++
			}
			if m.kind&FlowFingerprint != 0 {
				ri.FingerprintScripts++
			}
			if len(m.cookies) > 0 {
				ri.SetCookieFlows++
				if m.kind.Tracking() {
					ri.SetCookieTrackingFlows++
				}
			}
			ix.FlowsByParty[m.party] = append(ix.FlowsByParty[m.party], f)
			if f.Channel == "" {
				continue
			}
			ri.FlowsByChannel[f.Channel] = append(ri.FlowsByChannel[f.Channel], f)
			if m.kind&cfg.KnownTrackerMask == 0 {
				ts := f.Time.UnixNano()
				if b, ok := best[f.Channel]; !ok || ts < b.t {
					best[f.Channel] = fpCand{t: ts, party: m.party}
				}
			}
			if m.kind.Tracking() {
				cs := ix.PerChannelTracking[f.Channel]
				if cs == nil {
					cs = &ChannelTracking{Channel: f.Channel, Trackers: make(map[string]struct{})}
					ix.PerChannelTracking[f.Channel] = cs
				}
				cs.TrackingRequests++
				cs.Trackers[m.party] = struct{}{}
				ri.TrackingByChannel[f.Channel]++
			}
			for _, c := range m.cookies {
				ri.SetEvents = append(ri.SetEvents, CookieSetEvent{
					Run:     run.Name,
					Channel: f.Channel,
					Party:   m.party,
					Host:    m.host,
					Name:    c.Name,
					Value:   c.Value,
				})
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
	for ch, c := range best {
		ix.FirstParty[ch] = c.party
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
