package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// DefaultShards is the fixed logical shard count of the parallel
// measurement engine. The shard count — not the worker count — determines
// the partitioning of channels onto isolated frameworks, so it must stay
// fixed for a study's results to be reproducible; workers only decide how
// many shards execute concurrently.
const DefaultShards = 8

// ShardFactory builds the isolated measurement framework for one shard.
// The returned Framework must not share mutable state (virtual clock,
// recorder, TV, or virtual-Internet handler state) with any other shard;
// the engine's determinism and race freedom both rest on that isolation.
// Implementations typically give each shard its own fork of the study's
// synthetic world (fresh tracker services on a shard-private clock) and
// derive the framework seed as studySeed ^ shard.
type ShardFactory func(shard int) (*Framework, error)

// Pool is the sharded measurement engine: it partitions a run's channel
// list across a fixed number of logical shards, measures each shard's
// runs on its own isolated Framework, and merges the per-shard results
// into one Dataset in canonical channel order.
//
// The unit of work is one (shard, run) cell. A bounded set of workers
// takes cells from the shards that have cells left and none in flight,
// choosing the shard with the most cells left (the lowest next run
// index), then the lowest shard index. A full campaign therefore runs
// round-robin by run, so the heaviest shard never runs alone at the end,
// and a resume starts with the shards its journal left furthest behind.
//
// Results depend only on (Factory, Shards, specs, channels) — never on
// Workers or on scheduling: shard s always measures channels[i] with
// i % Shards == s, in the canonical relative order, on a framework built
// solely from the shard index, and its cells run one at a time in run
// order. Raising Workers changes wall-clock time, not a single byte of
// the merged dataset.
type Pool struct {
	// Shards is the logical shard count; 0 means DefaultShards. It is
	// clamped to the channel count so no shard is empty.
	Shards int
	// Workers bounds how many cells run at once; 0 means GOMAXPROCS.
	Workers int
	// Factory builds one isolated Framework per shard.
	Factory ShardFactory
	// Telemetry is the engine-controller telemetry handle (from
	// telemetry.Registry.Controller); nil disables the engine-level
	// telemetry: the campaign and merge spans and the merge counters.
	// Per-shard instrumentation is wired by the Factory through
	// Config.Telemetry.
	Telemetry *telemetry.Shard
	// Checkpoint, when non-nil, makes the campaign crash-safe: each
	// shard's completed cells (from an earlier, killed run of the same
	// study) are replayed instead of re-measured, and every freshly
	// completed (shard, run) cell is committed through the hooks before
	// the shard proceeds.
	Checkpoint *Checkpointer
}

// shardCursor is one shard's place in a campaign: its framework, its
// channel subset, the next run it measures, and what it produced — one
// RunData per spec index (nil where the shard did not reach that run)
// and its errors.
type shardCursor struct {
	shard  int
	subset []*dvb.Service
	fw     *Framework // nil until the shard's first step, and again once it is done
	// active is the shard's cell of core_shards_active, 1 while a cell is
	// in flight: the gauge counts the shards measuring right now.
	active *telemetry.BoundGauge
	next   int  // the next run index to measure
	done   bool // no cells left: every run measured, or the shard stopped
	busy   bool // a step is in flight; guarded by the scheduler's mutex
	runs   []*store.RunData
	errs   []error
}

// cursor places shard at the start of its cells: past the run prefix its
// checkpoint holds, which its first step replays.
func (p *Pool) cursor(shard, shards int, specs []RunSpec, channels []*dvb.Service) *shardCursor {
	return &shardCursor{
		shard:  shard,
		subset: ShardSubset(channels, shard, shards),
		next:   p.Checkpoint.completed(shard),
		runs:   make([]*store.RunData, len(specs)),
	}
}

// step advances the shard by one step: the first builds its framework
// and replays its checkpointed cells, each later one measures and commits
// one run. A non-degraded error (cancellation included), a failed commit
// or a panic ends the shard, and a shard's framework is dropped as soon
// as its last cell ends. It is the engine's only caller of
// ExecuteRunContext.
func (p *Pool) step(ctx context.Context, c *shardCursor, specs []RunSpec) {
	defer func() {
		if r := recover(); r != nil {
			c.stop(fmt.Errorf("shard panic: %v", r))
		}
		if c.done {
			c.fw = nil
		}
	}()
	if c.fw == nil {
		p.open(c, specs)
		return
	}
	c.active.Set(1)
	defer c.active.Set(0)
	si := c.next
	spec := specs[si]
	run, err := c.fw.ExecuteRunContext(ctx, spec, c.subset)
	c.runs[si] = run // partial data is kept even on error
	c.next++
	c.done = c.next == len(specs)
	if err != nil {
		// Cancellation is reported once by the caller, not per shard.
		if cerr := ctx.Err(); cerr == nil || !errors.Is(err, cerr) {
			c.errs = append(c.errs, fmt.Errorf("run %s: %w", spec.Name, err))
		}
		// Per-channel degradation (failed visits recorded as outcomes)
		// does not stop the shard's remaining runs; anything else —
		// cancellation, shard-level failure — does. A cancelled or
		// hard-failed run is never committed as a cell: its data is
		// partial, and a resume must re-measure it.
		if !DegradedOnly(err) {
			c.done = true
			return
		}
	}
	if cerr := p.Checkpoint.CommitCell(c.shard, si, spec, c.fw, run); cerr != nil {
		c.stop(fmt.Errorf("run %s: checkpoint: %w", spec.Name, cerr))
	}
}

// open is a shard's first step: build its framework and, on a resume,
// replay its checkpointed run prefix and fast-forward the framework (and
// the shard's world) to the last cell's state.
func (p *Pool) open(c *shardCursor, specs []RunSpec) {
	fw, err := p.Factory(c.shard)
	if err != nil {
		c.stop(fmt.Errorf("build framework: %w", err))
		return
	}
	c.active = fw.Telemetry.Gauge("core_shards_active")
	start, err := p.Checkpoint.Resume(c.shard, specs, fw, c.runs)
	if err != nil {
		c.stop(err)
		return
	}
	c.fw, c.next, c.done = fw, start, start == len(specs)
}

// stop ends the shard with err.
func (c *shardCursor) stop(err error) {
	c.errs = append(c.errs, err)
	c.done = true
}

// scheduler hands out cells to the pool's workers.
type scheduler struct {
	mu      sync.Mutex
	cursors []*shardCursor
}

// next releases prev (nil on a worker's first call) and claims the next
// shard to step: among shards with cells left and none in flight, the one
// with the most cells left — every shard has len(specs) cells, so that is
// the lowest next run index — then the lowest shard index. It returns nil
// when every shard with cells left is in flight: those shards' workers
// carry them to the end, so the caller may stop.
func (s *scheduler) next(prev *shardCursor) *shardCursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != nil {
		prev.busy = false
	}
	var best *shardCursor
	for _, c := range s.cursors {
		if c.busy || c.done {
			continue
		}
		if best == nil || c.next < best.next {
			best = c
		}
	}
	if best != nil {
		best.busy = true
	}
	return best
}

// ExecuteRuns performs all specs over the channel list using the sharded
// engine and returns the merged dataset.
//
// Cancellation: when ctx is cancelled mid-run, every shard stops at its
// next channel boundary, partial run data is collected and merged, and the
// (well-formed, partial) dataset is returned together with ctx.Err().
//
// Panics: a panic inside one channel's measurement is recovered by the
// shard's framework (see Framework.ExecuteRunContext), logged, and counted
// in the merged RunData.RecoveredPanics; the shard continues with its next
// channel. A panic outside channel scope (e.g. in the Factory) fails only
// that shard and is reported as an error.
func (p *Pool) ExecuteRuns(ctx context.Context, specs []RunSpec, channels []*dvb.Service) (*store.Dataset, error) {
	if p.Factory == nil {
		return nil, errors.New("core: pool has no shard factory")
	}
	// The campaign span lives on the controller slot. The controller's
	// clock is the study clock, which stands still while the shards run on
	// their own isolated clocks, so the span's extent is near zero — its
	// value is being the root the merge spans hang off.
	campaign := p.Telemetry.StartSpan(telemetry.SpanCampaign, fmt.Sprintf("runs=%d", len(specs)))
	defer campaign.End()
	shards := EffectiveShards(p.Shards, len(channels))
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}

	// Canonical channel order: the input list's order (the funnel output).
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}

	cursors := make([]*shardCursor, shards)
	for shard := range cursors {
		cursors[shard] = p.cursor(shard, shards, specs, channels)
	}
	sched := &scheduler{cursors: cursors}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := sched.next(nil); c != nil; c = sched.next(c) {
				p.step(ctx, c, specs)
			}
		}()
	}
	wg.Wait()

	ds := &store.Dataset{}
	for si := range specs {
		shardRuns := make([]*store.RunData, shards)
		any := false
		for s, c := range cursors {
			if c.runs[si] != nil {
				shardRuns[s] = c.runs[si]
				any = true
			}
		}
		if !any {
			continue
		}
		merged := store.MergeRunShards(order, shardRuns, p.Telemetry)
		// Run identity comes from the spec even if every shard was cancelled
		// before its first channel of this run.
		merged.Name, merged.Date = specs[si].Name, specs[si].Date
		ds.Runs = append(ds.Runs, merged)
	}

	if err := ctx.Err(); err != nil {
		return ds, err
	}
	var errs []error
	for s, c := range cursors {
		if err := errors.Join(c.errs...); err != nil {
			errs = append(errs, fmt.Errorf("core: shard %d: %w", s, err))
		}
	}
	return ds, errors.Join(errs...)
}

// ExecuteShard executes only the shard-th of the pool's shards — the
// partition, framework and checkpoint cells ExecuteRuns would give that
// shard — for a fleet collector that measures one shard per process. It
// returns one RunData per spec (nil where the shard stopped early) and
// the shard's errors; a cancelled context is reported as ctx.Err(). A
// shard at or beyond the effective shard count owns no channels: its runs
// are synthesized empty, without a framework, so they merge neutrally.
func (p *Pool) ExecuteShard(ctx context.Context, shard int, specs []RunSpec, channels []*dvb.Service) ([]*store.RunData, error) {
	if p.Factory == nil {
		return nil, errors.New("core: pool has no shard factory")
	}
	shards := EffectiveShards(p.Shards, len(channels))
	if shard >= shards {
		runs := make([]*store.RunData, len(specs))
		for i, spec := range specs {
			runs[i] = &store.RunData{Name: spec.Name, Date: spec.Date}
		}
		return runs, nil
	}
	// The same step loop as ExecuteRuns, driven serially.
	c := p.cursor(shard, shards, specs, channels)
	for !c.done {
		p.step(ctx, c, specs)
	}
	if err := ctx.Err(); err != nil {
		return c.runs, err
	}
	return c.runs, errors.Join(c.errs...)
}
