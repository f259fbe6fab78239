package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// This file is the traced run. It rebuilds hbbtvlab.Study's campaign from
// the layers' public entry points — the study world and the funnel, then
// a core.Pool whose shard factory builds instrumented worlds — and times
// each call. The untraced reference digest proves the rebuild measures
// exactly what Study does.

// studyStart is the virtual instant every study and shard clock starts
// at, as in hbbtvlab.NewStudyChecked.
var studyStart = time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)

// hostClass sorts the virtual Internet's hosts for the headend metrics.
type hostClass int

const (
	trackerHost hostClass = iota // a domain of world.Trackers, subdomains included
	appHost                      // a channel's first-party application host
	otherHost                    // group CDN, licence and stats hosts, fonts, the IPTV relay
	numHostClasses
)

// shardTrace is one shard's timeline in a traced pool pass. The shard's
// worker goroutine writes start, end and build, and the pool's return
// orders those writes before any read; handler wrappers add to requests
// and busy.
type shardTrace struct {
	start, end time.Time
	build      time.Duration
	requests   atomic.Int64
	busy       [numHostClasses]atomic.Int64 // ServeHTTP time, ns
}

// timedHandler counts and times the requests one host serves.
type timedHandler struct {
	next     http.Handler
	requests *atomic.Int64
	busy     *atomic.Int64
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.busy.Add(int64(time.Since(t0)))
	h.requests.Add(1)
}

// instrument re-registers every host of world behind a timedHandler that
// charges st.
func instrument(world *synth.World, st *shardTrace) {
	class := make(map[string]hostClass)
	for _, t := range world.Trackers {
		class[t.Domain] = trackerHost
	}
	for _, ch := range world.Channels {
		class[ch.AppHost] = appHost
	}
	for _, host := range world.Internet.Hosts() {
		h, ok := world.Internet.Lookup(host)
		if !ok {
			continue
		}
		c, known := class[strings.TrimPrefix(host, "*.")]
		if !known {
			c = otherHost
		}
		world.Internet.Handle(host, timedHandler{next: h, requests: &st.requests, busy: &st.busy[c]})
	}
}

// passTrace is one traced campaign pass: the funnel on the study world,
// then the pool over instrumented shard worlds.
type passTrace struct {
	studyBuild   time.Duration // synth.Build of the study world
	scan, funnel time.Duration // dvb.Receiver.Scan, core.SelectChannels
	probes       []time.Duration
	runs         time.Duration // core.Pool.ExecuteRuns
	merge        time.Duration // last committed cell to ExecuteRuns' return
	appends      time.Duration // journal appends, fsync included
	workers      int           // workers the pool ran
	shards       []*shardTrace
}

// tracedStudy is hbbtvlab.Study rebuilt from its layers with a timer
// around each call.
type tracedStudy struct {
	opts     hbbtvlab.Options
	injector *faults.Injector
	pass     passTrace

	mu     sync.Mutex // guards worlds and shards, filled as shards start
	worlds map[int]*synth.World
	shards map[int]*shardTrace
}

func newTracedStudy(opts hbbtvlab.Options) (*tracedStudy, error) {
	s := &tracedStudy{opts: opts, worlds: make(map[int]*synth.World), shards: make(map[int]*shardTrace)}
	if opts.Faults != nil {
		inj, err := faults.New(*opts.Faults)
		if err != nil {
			return nil, err
		}
		s.injector = inj
	}
	return s, nil
}

// world builds the study's synthetic world on a fresh virtual clock, as
// NewStudyChecked and Study's shard factory both do.
func (s *tracedStudy) world() (*synth.World, *clock.Virtual, time.Duration) {
	clk := clock.NewVirtual(studyStart)
	t0 := time.Now()
	w := synth.Build(synth.Config{Seed: s.opts.Seed, Scale: s.opts.Scale}, clk)
	return w, clk, time.Since(t0)
}

func (s *tracedStudy) framework(w *synth.World, clk *clock.Virtual, seed int64) *core.Framework {
	return core.New(core.Config{
		Internet:     w.Internet,
		Seed:         seed,
		Clock:        clk,
		Availability: w.Availability,
		Faults:       s.injector,
		Retry:        s.opts.Retry,
	})
}

// selectChannels is Study.SelectChannels with the scan and every probe
// timed.
func (s *tracedStudy) selectChannels() ([]*dvb.Service, error) {
	world, clk, build := s.world()
	s.pass.studyBuild = build
	probe := s.framework(world, clk, s.opts.Seed).Probe(core.ExploratoryWatch)
	t0 := time.Now()
	bouquet := dvb.NewReceiver().Scan(world.Universe)
	t1 := time.Now()
	report, err := core.SelectChannels(bouquet, func(svc *dvb.Service) (bool, error) {
		p0 := time.Now()
		saw, err := probe(svc)
		s.pass.probes = append(s.pass.probes, time.Since(p0))
		return saw, err
	})
	s.pass.scan, s.pass.funnel = t1.Sub(t0), time.Since(t1)
	if err := degraded(err); err != nil {
		return nil, err
	}
	return report.Final, nil
}

// factory is Study's shard factory, with the shard world instrumented
// before the framework is built on it.
func (s *tracedStudy) factory(shard int) (*core.Framework, error) {
	st := &shardTrace{start: time.Now()}
	world, clk, build := s.world()
	st.build = build
	instrument(world, st)
	st.end = time.Now() // moved on by each committed cell
	s.mu.Lock()
	s.worlds[shard], s.shards[shard] = world, st
	s.mu.Unlock()
	return s.framework(world, clk, s.opts.Seed^int64(shard)), nil
}

func (s *tracedStudy) shard(i int) (*shardTrace, *synth.World) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i], s.worlds[i]
}

// checkpointer returns the pool's cell hooks. Every commit stamps the
// shard's end, since a completed (shard, run) cell is the only boundary
// the engine reports. With a journal the hooks are the ones Study wires:
// cells are appended (and timed), resume's cells replayed, and shard
// worlds captured and restored.
func (s *tracedStudy) checkpointer(journal *store.CheckpointJournal, resume *store.Checkpoint) *core.Checkpointer {
	var mu sync.Mutex // one append at a time, as in Study
	cp := &core.Checkpointer{Commit: func(cell *store.CheckpointCell) error {
		st, _ := s.shard(cell.Shard)
		defer func() { st.end = time.Now() }()
		if journal == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		t0 := time.Now()
		err := journal.Append(cell)
		s.pass.appends += time.Since(t0)
		return err
	}}
	if journal == nil {
		return cp
	}
	byShard := make(map[int][]*store.CheckpointCell)
	if resume != nil {
		for _, cell := range resume.Cells {
			byShard[cell.Shard] = append(byShard[cell.Shard], cell)
		}
	}
	cp.Completed = func(shard int) []*store.CheckpointCell { return byShard[shard] }
	cp.CaptureWorld = func(shard int) []store.TrackerState {
		_, w := s.shard(shard)
		return w.TrackerStates()
	}
	cp.RestoreWorld = func(shard int, trackers []store.TrackerState) error {
		_, w := s.shard(shard)
		return w.RestoreTrackerStates(trackers)
	}
	return cp
}

// runs is the pool of Study.ExecuteRunsContext with the traced factory.
func (s *tracedStudy) runs(ctx context.Context, channels []*dvb.Service, cp *core.Checkpointer) (*store.Dataset, error) {
	specs := s.opts.Runs
	if specs == nil {
		specs = core.DefaultRuns()
	}
	pool := &core.Pool{Shards: s.opts.Shards, Workers: s.opts.Parallelism, Factory: s.factory, Checkpoint: cp}
	t0 := time.Now()
	ds, err := pool.ExecuteRuns(ctx, specs, channels)
	done := time.Now()
	s.pass.runs = done.Sub(t0)
	s.pass.workers = min(s.opts.Parallelism, core.EffectiveShards(s.opts.Shards, len(channels)))
	last := t0
	for _, st := range s.shards {
		s.pass.shards = append(s.pass.shards, st)
		if st.end.After(last) {
			last = st.end
		}
	}
	s.pass.merge = done.Sub(last)
	return ds, degraded(err)
}

func (c *campaign) traced(ctx context.Context) (*profile, ops, error) {
	var o ops
	p := &profile{}
	d, err := c.tracedPass(ctx, p)
	err1 := o.expect("traced digest", d, c.digest, err)
	// In the reliable world every recorded flow is one handler call.
	err2 := o.expect("headend requests vs proxy flows", itoa(p.requests()), itoa(int64(p.flows)), nil)
	return p, o, errors.Join(err1, err2)
}

func (c *campaign) tracedPass(ctx context.Context, p *profile) (string, error) {
	s, err := newTracedStudy(campaignOptions(c.cfg, c.cfg.workers))
	if err != nil {
		return "", err
	}
	p.passes = append(p.passes, &s.pass)
	channels, err := s.selectChannels()
	if err != nil {
		return "", err
	}
	ds, err := s.runs(ctx, channels, s.checkpointer(nil, nil))
	if err != nil {
		return "", err
	}
	p.count(ds)
	t0 := time.Now()
	d, err := ds.Digest()
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	var w countWriter
	err = store.Save(&w, ds, store.FormatSnapshot)
	p.digest, p.save, p.snapshotBytes = t1.Sub(t0), time.Since(t1), w.n
	return d, err
}

func (c *chaos) traced(ctx context.Context) (*profile, ops, error) {
	var o ops
	p := &profile{}
	full, cut := c.journals()
	d, err := c.tracedPass(ctx, p, full, false)
	err1 := o.expect("traced uninterrupted digest", d, c.digest, err)
	if fi, err := os.Stat(full); err == nil {
		p.journalBytes = fi.Size()
	}
	d, err = "", cutJournal(full, cut, c.cut)
	if err == nil {
		d, err = c.tracedPass(ctx, p, cut, true)
	}
	err2 := o.expect("traced resumed digest", d, c.digest, err)
	return p, o, errors.Join(err1, err2)
}

// tracedPass is pass through a tracedStudy: it journals to path, resuming
// the journal there when resume is set.
func (c *chaos) tracedPass(ctx context.Context, p *profile, path string, resume bool) (string, error) {
	s, err := newTracedStudy(c.opts)
	if err != nil {
		return "", err
	}
	p.passes = append(p.passes, &s.pass)
	channels, err := s.selectChannels()
	if err != nil {
		return "", err
	}
	var cp *store.Checkpoint
	var journal *store.CheckpointJournal
	if resume {
		t0 := time.Now()
		cp, journal, err = store.ResumeJournal(path, 1)
		p.resume += time.Since(t0)
		if err == nil {
			if err = cp.Validate(c.header); err != nil {
				journal.Close()
			}
		}
	} else {
		journal, err = store.CreateJournal(path, c.header, 1)
	}
	if err != nil {
		return "", err
	}
	ds, err := s.runs(ctx, channels, s.checkpointer(journal, cp))
	if err := errors.Join(err, journal.Close()); err != nil {
		return "", err
	}
	if !resume {
		p.count(ds)
	}
	t0 := time.Now()
	d, err := ds.Digest()
	p.digest += time.Since(t0)
	return d, err
}

// profile is one traced iteration's per-layer record. Layers the
// workload does not run stay zero.
type profile struct {
	wall   time.Duration // the whole traced iteration
	rt     runtimeDelta
	passes []*passTrace

	// Counts of the campaign's dataset.
	flows, screenshots, visits, attempts, considered, failedVisits int
	responseBytes                                                  int64

	digest, save, load, resume, analyze, render, index time.Duration
	sections                                           map[hbbtvlab.Section]time.Duration
	snapshotBytes, journalBytes                        int64
}

// count adds the dataset's measurement counts to p.
func (p *profile) count(ds *store.Dataset) {
	for _, run := range ds.Runs {
		p.flows += len(run.Flows)
		for _, f := range run.Flows {
			p.responseBytes += f.ResponseSize
		}
		p.screenshots += len(run.Screenshots)
		for _, o := range run.Outcomes {
			if o.Status == store.OutcomeSkipped {
				continue
			}
			p.considered++
			if o.Attempts > 0 {
				p.visits++
				p.attempts += o.Attempts
			}
			if o.Status == store.OutcomeFailed || o.Status == store.OutcomeQuarantined {
				p.failedVisits++
			}
		}
	}
}

// analysisTimes reads the index build and per-section times that
// AnalyzeContext records in its telemetry registry, in microseconds.
func (p *profile) analysisTimes(snap *telemetry.Snapshot) {
	us := func(name string) time.Duration {
		return time.Duration(snap.Histograms[name].Sum) * time.Microsecond
	}
	p.index = us("analyze.index.build_us")
	p.sections = make(map[hbbtvlab.Section]time.Duration)
	for _, s := range hbbtvlab.AllSections() {
		p.sections[s] = us("analyze.section." + string(s) + ".us")
	}
}

// requests is how many requests the shard worlds' handlers served.
func (p *profile) requests() int64 {
	var n int64
	for _, ps := range p.passes {
		for _, st := range ps.shards {
			n += st.requests.Load()
		}
	}
	return n
}

// metrics derives every per-layer metric but trace_overhead_frac, by name.
func (p *profile) metrics() map[string]float64 {
	var build, shardBuild, scan, funnel, runs, merge, appends, idle time.Duration
	var busy [numHostClasses]time.Duration
	var spans, probes []time.Duration
	for _, ps := range p.passes {
		build += ps.studyBuild
		scan += ps.scan
		funnel += ps.funnel
		probes = append(probes, ps.probes...)
		runs += ps.runs
		merge += ps.merge
		appends += ps.appends
		var passSpans time.Duration
		for _, st := range ps.shards {
			span := st.end.Sub(st.start)
			spans = append(spans, span)
			passSpans += span
			shardBuild += st.build
			for c := range busy {
				busy[c] += time.Duration(st.busy[c].Load())
			}
		}
		idle += workerIdle(ps.workers, ps.runs, passSpans)
	}
	spanSum, spanMax, skew := spanStats(spans)
	self := engineSelf(spanSum, shardBuild, busy[trackerHost]+busy[appHost]+busy[otherHost])
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
	p50, _ := percentile(probes, 500)
	tailPermille, tail := tailPercentile(probes)
	m := map[string]float64{
		"synth.build_s":           (build + shardBuild).Seconds(),
		"headend.requests":        float64(p.requests()),
		"headend.tracker_busy_s":  busy[trackerHost].Seconds(),
		"headend.app_busy_s":      busy[appHost].Seconds(),
		"headend.other_busy_s":    busy[otherHost].Seconds(),
		"dvb.scan_s":              scan.Seconds(),
		"core.funnel_s":           funnel.Seconds(),
		"core.probes":             float64(len(probes)),
		"core.probe_p50_ms":       ms(p50),
		"core.probe_tail_ms":      ms(tail),
		"core.probe_tail_pct":     float64(tailPermille) / 10,
		"core.runs_s":             runs.Seconds(),
		"core.shard_span_max_s":   spanMax.Seconds(),
		"core.shard_skew":         skew,
		"core.worker_idle_s":      idle.Seconds(),
		"core.engine_self_s":      self.Seconds(),
		"core.engine_us_per_flow": ratio(float64(self)/1e3, float64(p.flows)),
		"core.visits":             float64(p.visits),
		"core.attempts_per_visit": ratio(float64(p.attempts), float64(p.visits)),
		"core.visit_failed_frac":  ratio(float64(p.failedVisits), float64(p.considered)),
		"proxy.flows":             float64(p.flows),
		"proxy.response_mb":       mb(p.responseBytes),
		"webos.screenshots":       float64(p.screenshots),
		"store.merge_s":           merge.Seconds(),
		"store.digest_s":          p.digest.Seconds(),
		"store.snapshot_save_s":   p.save.Seconds(),
		"store.snapshot_mb":       mb(p.snapshotBytes),
		"store.snapshot_load_s":   p.load.Seconds(),
		"store.index_s":           p.index.Seconds(),
		"store.journal_mb":        mb(p.journalBytes),
		"store.journal_append_s":  appends.Seconds(),
		"store.resume_s":          p.resume.Seconds(),
		"hbbtvlab.analyze_s":      p.analyze.Seconds(),
		"hbbtvlab.render_s":       p.render.Seconds(),
		"runtime.alloc_mb":        mb(int64(p.rt.allocBytes)),
		"runtime.gc_cycles":       float64(p.rt.gcCycles),
		"runtime.gc_cpu_frac":     ratio(p.rt.gcCPU, p.rt.totalCPU-p.rt.idleCPU),
	}
	for _, s := range hbbtvlab.AllSections() {
		m[sectionMetric(s)] = p.sections[s].Seconds()
	}
	return m
}

func sectionMetric(s hbbtvlab.Section) string { return "hbbtvlab.section." + string(s) + "_s" }

// spanStats returns the sum and the longest of the shard spans, and their
// skew: the longest over the mean (0 without spans).
func spanStats(spans []time.Duration) (sum, longest time.Duration, skew float64) {
	for _, d := range spans {
		sum += d
		longest = max(longest, d)
	}
	if sum > 0 {
		skew = float64(longest) * float64(len(spans)) / float64(sum)
	}
	return sum, longest, skew
}

// workerIdle is the worker time a pool pass left unused: its workers
// times its wall time, less the shard spans they ran.
func workerIdle(workers int, runs, spanSum time.Duration) time.Duration {
	return time.Duration(workers)*runs - spanSum
}

// engineSelf is the time shards spent in the measurement engine itself
// (webos, proxy and hostnet, which cannot be told apart from outside):
// shard spans less the shard worlds' synth.Build and the handler time.
func engineSelf(spanSum, build, busy time.Duration) time.Duration {
	return spanSum - build - busy
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank percentile of sorted samples, given
// in per mille, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []time.Duration, permille int) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := max((permille*n+999)/1000, 1) // 1-based rank
	return sorted[k-1], n-k >= minBeyond
}

// tailPercentile returns the highest of p99.9, p99, p95, p90, p75 and p50
// that percentile supports, in per mille, with its value; zeros when even
// the median is not supported.
func tailPercentile(sorted []time.Duration) (int, time.Duration) {
	for _, pm := range []int{999, 990, 950, 900, 750, 500} {
		if v, ok := percentile(sorted, pm); ok {
			return pm, v
		}
	}
	return 0, 0
}

// runtimeNames are the runtime/metrics a runtimeDelta covers, in field order.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// runtimeDelta is what the Go runtime did over an interval.
type runtimeDelta struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
	}
}

func (d runtimeDelta) since(start runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: d.allocBytes - start.allocBytes,
		gcCycles:   d.gcCycles - start.gcCycles,
		gcCPU:      d.gcCPU - start.gcCPU,
		totalCPU:   d.totalCPU - start.totalCPU,
		idleCPU:    d.idleCPU - start.idleCPU,
	}
}
