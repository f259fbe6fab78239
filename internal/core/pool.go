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
// Implementations typically rebuild the synthetic world from the study
// seed and derive the framework seed as studySeed ^ shard.
type ShardFactory func(shard int) (*Framework, error)

// Pool is the sharded measurement engine: it partitions a run's channel
// list across a fixed number of logical shards, executes each shard's
// measurement runs on its own isolated Framework using a bounded worker
// pool, and merges the per-shard results into one Dataset in canonical
// channel order.
//
// Results depend only on (Factory, Shards, specs, channels) — never on
// Workers or on scheduling: shard s always measures channels[i] with
// i % Shards == s, in the canonical relative order, on a framework built
// solely from the shard index. Raising Workers changes wall-clock time,
// not a single byte of the merged dataset.
type Pool struct {
	// Shards is the logical shard count; 0 means DefaultShards. It is
	// clamped to the channel count so no shard is empty.
	Shards int
	// Workers bounds concurrent shard execution; 0 means GOMAXPROCS.
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

// shardOutcome is what one shard contributes: one RunData per spec index
// (nil where the shard did not reach that run) and the first error.
type shardOutcome struct {
	runs []*store.RunData
	err  error
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

	outcomes := make([]shardOutcome, shards)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range jobs {
				outcomes[shard] = p.runShard(ctx, shard, shards, specs, channels)
			}
		}()
	}
	for shard := 0; shard < shards; shard++ {
		jobs <- shard
	}
	close(jobs)
	wg.Wait()

	ds := &store.Dataset{}
	for si := range specs {
		shardRuns := make([]*store.RunData, shards)
		any := false
		for s := range outcomes {
			if len(outcomes[s].runs) > si && outcomes[s].runs[si] != nil {
				shardRuns[s] = outcomes[s].runs[si]
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
	for s := range outcomes {
		if outcomes[s].err != nil {
			errs = append(errs, fmt.Errorf("core: shard %d: %w", s, outcomes[s].err))
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
	out := p.runShard(ctx, shard, shards, specs, channels)
	if err := ctx.Err(); err != nil {
		return out.runs, err
	}
	return out.runs, out.err
}

// runShard executes all specs for one shard on the framework the Factory
// builds for it. It is the engine's only caller of ExecuteRunContext.
func (p *Pool) runShard(ctx context.Context, shard, shards int, specs []RunSpec, channels []*dvb.Service) (out shardOutcome) {
	out.runs = make([]*store.RunData, len(specs))
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("shard panic: %v", r)
		}
	}()

	fw, err := p.Factory(shard)
	if err != nil {
		out.err = fmt.Errorf("build framework: %w", err)
		return out
	}
	subset := ShardSubset(channels, shard, shards)
	if fw.Telemetry.Active() {
		active := fw.Telemetry.Gauge("core_shards_active")
		active.Set(1)
		defer active.Set(0)
	}
	// Resume: replay the shard's checkpointed run prefix and fast-forward
	// the framework (and the shard's world) to the last cell's state.
	start, err := p.Checkpoint.Resume(shard, specs, fw, out.runs)
	if err != nil {
		out.err = err
		return out
	}
	var errs []error
	for si := start; si < len(specs); si++ {
		spec := specs[si]
		run, err := fw.ExecuteRunContext(ctx, spec, subset)
		out.runs[si] = run // partial data is kept even on error
		if err != nil {
			// Cancellation is reported once by ExecuteRuns, not per shard.
			if cerr := ctx.Err(); cerr == nil || !errors.Is(err, cerr) {
				errs = append(errs, fmt.Errorf("run %s: %w", spec.Name, err))
			}
			// Per-channel degradation (failed visits recorded as outcomes)
			// does not stop the shard's remaining runs; anything else —
			// cancellation, shard-level failure — does. A cancelled or
			// hard-failed run is never committed as a cell: its data is
			// partial, and a resume must re-measure it.
			if !DegradedOnly(err) {
				break
			}
		}
		if cerr := p.Checkpoint.CommitCell(shard, si, spec, fw, run); cerr != nil {
			errs = append(errs, fmt.Errorf("run %s: checkpoint: %w", spec.Name, cerr))
			break
		}
	}
	out.err = errors.Join(errs...)
	return out
}
