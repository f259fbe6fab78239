// Package hbbtvlab is a faithful, laptop-scale reproduction of the DSN
// 2025 measurement study "Privacy from 5 PM to 6 AM: Tracking and
// Transparency Mechanisms in the HbbTV Ecosystem".
//
// The public API follows the study's own workflow:
//
//	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 1.0})
//	funnel, _ := study.SelectChannels()   // Section IV-B filtering funnel
//	dataset, _ := study.ExecuteRuns()     // the five measurement runs
//	results := hbbtvlab.Analyze(dataset)  // Sections V, VI, VII
//
// Everything below the API is built from scratch on the standard library:
// a DVB broadcast layer with binary AITs, a webOS-style TV with an HbbTV
// runtime, a recording mitmproxy substitute, a virtual Internet of
// broadcaster and tracker services, and the full analysis suite (filter
// lists, tracking heuristics, ecosystem graph, consent-notice annotation,
// and the privacy-policy pipeline with policy-vs-traffic contradiction
// checks).
//
// # Context pairing
//
// Every long-running entry point comes in a convenience/context pair:
// ExecuteRuns and ExecuteRunsContext, ExecuteShard and
// ExecuteShardContext, Run and RunContext, Merge and MergeContext,
// Analyze and AnalyzeContext. The convenience form is the context form
// called with context.Background(); the context form supports cooperative
// cancellation and — where noted — returns the well-formed partial
// result collected so far together with the context's error.
//
// # One measurement engine
//
// Every measurement entry point — ExecuteRuns, ExecuteResumable,
// ExecuteShard, ExecuteShardResumable, Run and their context forms — is a
// plan for the same engine, core.Pool, over the campaign's logical shards
// (see Options.Shards). A one-shard campaign is the paper's procedure of
// Section IV-C: one TV visits every channel on a single timeline, run
// after run, on the study's own post-funnel framework. It is therefore
// checkpointable, fleet-mergeable and traced exactly like a sharded one.
//
// # Fleet topology
//
// A campaign can be split across independent collector processes:
// ExecuteShard(i, N) measures the i-th strided partition of the channel
// order and returns a shard dataset whose store.ShardManifest makes it
// self-describing; Merge verifies K such datasets cover the campaign
// exactly once with identical study parameters and recombines them into
// a dataset byte-identical (by Digest) to the single-process campaign of
// the same study with Options.Shards = N, at any Parallelism. The
// hbbtv-measure -shard i/N flag and the hbbtv-merge command are the CLI
// face of the same API.
package hbbtvlab

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// Options configures a Study.
type Options struct {
	// Seed makes the whole study deterministic.
	Seed int64
	// Scale multiplies the world size; 1.0 is paper scale (3,575 received
	// services, 396 analyzed channels), smaller values build proportional
	// worlds for fast experimentation.
	Scale float64
	// ProbeWatch overrides the exploratory per-channel watch time
	// (default: the paper's 910 s — virtual time, so it costs nothing).
	ProbeWatch time.Duration
	// Runs overrides the measurement-run specs (default: the study's five
	// runs with their real dates).
	Runs []core.RunSpec
	// Parallelism is the number of worker goroutines that execute the
	// campaign's shards; 0 runs one. It also picks the default shard
	// count (see Shards): Parallelism 0 measures the paper's exact
	// procedure — one shard, so one TV visits every channel on a single
	// timeline — and N >= 1 partitions the channel list across
	// core.DefaultShards isolated frameworks (own virtual clock, recorder,
	// TV, and synthetic world, seeded Seed ^ shard). For a fixed shard
	// count the dataset is byte-identical for every Parallelism — workers
	// change wall-clock time only.
	Parallelism int
	// Shards is the campaign's logical shard count. 0 selects 1 when
	// Parallelism is 0 and core.DefaultShards otherwise. Shards = 1 is the
	// paper's procedure at any Parallelism. Changing the shard count
	// changes the partition and therefore the dataset; changing
	// Parallelism at a fixed shard count never does.
	Shards int
	// Telemetry, when non-nil, instruments the measurement engine with
	// the given registry (build one with NewTelemetry). Telemetry reads
	// the virtual clock only and is excluded from Dataset.Digest, so
	// enabling it never changes results; the final snapshot is attached
	// to the returned Dataset (and persisted by Dataset.Save).
	Telemetry *telemetry.Registry
	// Faults, when non-nil, enables deterministic fault injection: dead
	// hosts, timeouts, hangs, 5xx bursts, truncated/reset bodies, tune
	// failures, and AIT corruption, scheduled purely by (Faults.Seed,
	// host, channel, attempt). A Faults.Seed of 0 derives the fault seed
	// from Options.Seed. The zero value (nil) runs the perfectly reliable
	// world. For a fixed (Seed, Faults.Seed, Shards) the fault schedule —
	// and therefore the dataset — is identical for every Parallelism.
	Faults *faults.Config
	// Retry is the per-channel resilience policy: visit attempt budget,
	// virtual-clock backoff with deterministic jitter, per-visit setup
	// deadline, and run-streak quarantine. The zero value means one
	// attempt, no backoff, no deadline, no quarantine — the engine's
	// historical behaviour, except that a failed channel is now recorded
	// as a store.ChannelOutcome and never aborts the run.
	Retry core.RetryPolicy
}

// Validate checks the options for values that are neither meaningful nor
// defaultable. The zero value of every field is valid and selects the
// documented default; values that would otherwise have to be silently
// clamped are rejected instead, so a typo cannot masquerade as a default:
// negative Parallelism or Shards, a negative or non-finite Scale, an
// out-of-range fault rate or unknown fault kind in Faults, and negative
// attempt budgets or durations in Retry.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("hbbtvlab: Options.Parallelism must be >= 0, got %d", o.Parallelism)
	}
	if o.Shards < 0 {
		return fmt.Errorf("hbbtvlab: Options.Shards must be >= 0, got %d", o.Shards)
	}
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("hbbtvlab: Options.Scale must be finite, got %v", o.Scale)
	}
	if o.Scale < 0 {
		return fmt.Errorf("hbbtvlab: Options.Scale must be >= 0, got %v", o.Scale)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return fmt.Errorf("hbbtvlab: Options.Faults: %w", err)
		}
	}
	if err := o.Retry.Validate(); err != nil {
		return fmt.Errorf("hbbtvlab: Options.Retry: %w", err)
	}
	return nil
}

// NewTelemetry builds a telemetry registry with one shard slot per
// logical shard of the campaign the options describe (see Options.Shards).
func NewTelemetry(opts Options) *telemetry.Registry {
	return telemetry.New(telemetry.Options{Shards: opts.shards()})
}

// shards is the campaign's logical shard count, the one home of the rule
// documented on Options.Shards.
func (o Options) shards() int {
	switch {
	case o.Shards > 0:
		return o.Shards
	case o.Parallelism == 0:
		return 1
	default:
		return core.DefaultShards
	}
}

// Study bundles the synthetic world with the measurement framework.
type Study struct {
	opts      Options
	World     *synth.World
	Framework *core.Framework

	// injector is the study's fault injector (nil when faults are off).
	// Injectors are stateless and shard-agnostic, so one instance serves
	// the study's framework and every shard alike.
	injector *faults.Injector

	selected []*dvb.Service

	// worldsMu guards shardWorlds: the per-shard synthetic worlds handed
	// out by shardFramework, kept so the checkpoint layer can capture and
	// restore their handler state (tracker rng positions and ID counters).
	worldsMu    sync.Mutex
	shardWorlds map[int]*synth.World
}

// shardWorld returns the world built for the given shard, or nil before
// its framework was built.
func (s *Study) shardWorld(shard int) *synth.World {
	s.worldsMu.Lock()
	defer s.worldsMu.Unlock()
	return s.shardWorlds[shard]
}

// NewStudy builds the world and wires the measurement framework to it.
// Invalid options (see Options.Validate) panic with a descriptive
// message; use NewStudyChecked to handle them as errors instead.
func NewStudy(opts Options) *Study {
	s, err := NewStudyChecked(opts)
	if err != nil {
		panic("hbbtvlab: NewStudy: " + err.Error())
	}
	return s
}

// NewStudyChecked is NewStudy returning option-validation errors instead
// of panicking — the form for callers wiring user-supplied configuration.
func NewStudyChecked(opts Options) (*Study, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.ProbeWatch <= 0 {
		opts.ProbeWatch = core.ExploratoryWatch
	}
	if opts.Runs == nil {
		opts.Runs = core.DefaultRuns()
	}
	var injector *faults.Injector
	if opts.Faults != nil {
		fc := *opts.Faults
		if fc.Seed == 0 {
			// Derive a distinct fault seed from the study seed so that
			// enabling faults with default settings still varies by study.
			fc.Seed = opts.Seed ^ 0x6661756c74 // "fault"
		}
		var err error
		if injector, err = faults.New(fc); err != nil {
			return nil, fmt.Errorf("hbbtvlab: Options.Faults: %w", err)
		}
		// opts is the study's private copy; keep the effective (seed-
		// derived) config so the shard manifest fingerprints what actually
		// ran, not what the caller wrote.
		opts.Faults = &fc
	}
	// The study's own framework (funnel probes, one-shard campaigns) is
	// shard 0: telemetry slot 0 on its own virtual clock.
	clk := clock.NewVirtual(studyStart)
	world := synth.Build(synth.Config{Seed: opts.Seed, Scale: opts.Scale}, clk)
	fw := newFramework(opts, injector, world, clk, 0)
	return &Study{opts: opts, World: world, Framework: fw, injector: injector}, nil
}

// studyStart is the virtual instant the study's clock and every shard's
// clock start at.
var studyStart = time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)

// newFramework wires a measurement framework seeded Seed ^ shard to world
// on clk, instrumented as telemetry slot shard.
func newFramework(opts Options, injector *faults.Injector, world *synth.World, clk *clock.Virtual, shard int) *core.Framework {
	return core.New(core.Config{
		Internet:     world.Internet,
		Seed:         opts.Seed ^ int64(shard),
		Clock:        clk,
		Availability: world.Availability,
		Faults:       injector,
		Retry:        opts.Retry,
		Telemetry:    opts.Telemetry.Shard(shard, clk.Now),
	})
}

// SelectChannels runs the Section IV-B funnel: scan the satellites, apply
// the metadata filters, perform the exploratory measurement, and keep the
// HbbTV channels.
func (s *Study) SelectChannels() (*core.FunnelReport, error) {
	bouquet := dvb.NewReceiver().Scan(s.World.Universe)
	report, err := core.SelectChannels(bouquet, s.Framework.Probe(s.opts.ProbeWatch))
	if report != nil {
		s.selected = report.Final
	}
	if err != nil {
		// Probe errors are aggregated; the report still covers every
		// candidate that probed cleanly.
		return report, fmt.Errorf("hbbtvlab: funnel: %w", err)
	}
	return report, nil
}

// Selected returns the funnel's output (running the funnel on demand).
// Pure probe-level degradation (failed candidates excluded by the funnel,
// see core.DegradedOnly) does not fail Selected: the study proceeds with
// the channels that probed cleanly, as the field campaign would.
func (s *Study) Selected() ([]*dvb.Service, error) {
	if s.selected == nil {
		if _, err := s.SelectChannels(); err != nil && !core.DegradedOnly(err) {
			return nil, err
		}
	}
	return s.selected, nil
}

// ExecuteRuns performs all configured measurement runs over the selected
// channels and returns the full dataset.
func (s *Study) ExecuteRuns() (*store.Dataset, error) {
	return s.ExecuteRunsContext(context.Background())
}

// ExecuteRunsContext is ExecuteRuns with cooperative cancellation. The
// runs execute as a core.Pool plan over the campaign's logical shards (see
// Options.Shards); a one-shard campaign is the paper's single-TV procedure
// on the study's own framework. A cancelled context yields the well-formed
// partial dataset collected so far together with the context's error.
func (s *Study) ExecuteRunsContext(ctx context.Context) (*store.Dataset, error) {
	return s.campaign(ctx, s.opts.Runs, s.opts.shards(), -1, nil)
}

// campaign executes specs over the selected channels as a core.Pool plan
// of shards logical shards: the one measurement engine behind every entry
// point. With fleetShard < 0 it measures every shard and merges them;
// otherwise it measures only shard fleetShard, for one collector of a
// fleet, and stamps the dataset with its shard manifest. A non-nil co
// journals every completed (shard, run) cell and, on resume, replays the
// journaled ones instead of measuring them again.
func (s *Study) campaign(ctx context.Context, specs []core.RunSpec, shards, fleetShard int, co *CheckpointOptions) (ds *store.Dataset, err error) {
	channels, err := s.Selected()
	if err != nil {
		return nil, err
	}
	eff := core.EffectiveShards(shards, len(channels))
	pool := &core.Pool{
		Shards:  eff,
		Workers: max(s.opts.Parallelism, 1),
		Factory: s.shardFramework(eff),
		// Merge phases are engine-controller work, timestamped on the study
		// clock.
		Telemetry: s.opts.Telemetry.Controller(s.Framework.Clock.Now),
	}
	if co != nil {
		// The journal records an in-process campaign's effective shard
		// count and a fleet collector's N.
		topology := eff
		if fleetShard >= 0 {
			topology = shards
		}
		want, err := s.checkpointHeader(channels, topology, fleetShard)
		if err != nil {
			return nil, err
		}
		cp, journal, err := openJournal(*co, want)
		if err != nil {
			return nil, err
		}
		pool.Checkpoint = s.checkpointer(cp, journal)
		// The close syncs every committed cell; its error matters even when
		// the campaign itself succeeded.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("hbbtvlab: close checkpoint journal: %w", cerr))
			}
		}()
	}
	if fleetShard < 0 {
		ds, err = pool.ExecuteRuns(ctx, specs, channels)
		s.attachTelemetry(ds)
		if err != nil {
			return ds, fmt.Errorf("hbbtvlab: runs: %w", err)
		}
		return ds, nil
	}
	runs, err := pool.ExecuteShard(ctx, fleetShard, specs, channels)
	ds = &store.Dataset{}
	for _, run := range runs {
		if run != nil {
			ds.Runs = append(ds.Runs, run)
		}
	}
	if err != nil {
		err = fmt.Errorf("hbbtvlab: shard %d: %w", fleetShard, err)
	}
	return ds, errors.Join(err, s.finishShard(ds, fleetShard, shards, channels))
}

// attachTelemetry embeds the engine's final telemetry snapshot and span
// trace in the dataset (a no-op when telemetry is disabled). Both ride
// along in store.Save but are excluded from Dataset.Digest.
func (s *Study) attachTelemetry(ds *store.Dataset) {
	if ds != nil && s.opts.Telemetry != nil {
		ds.Telemetry = s.opts.Telemetry.Snapshot()
		ds.Trace = s.opts.Telemetry.Trace()
	}
}

// Telemetry returns the study's telemetry registry (nil unless
// Options.Telemetry was set).
func (s *Study) Telemetry() *telemetry.Registry { return s.opts.Telemetry }

// DegradedOnly reports whether err consists purely of per-channel
// degradation — failed channel visits and failed funnel probes that the
// resilient engine recorded (as store.ChannelOutcome entries and funnel
// exclusions) before continuing. A degraded dataset is well-formed and
// analyzable; any other error (cancellation above all) means the campaign
// actually stopped.
func DegradedOnly(err error) bool { return core.DegradedOnly(err) }

// shardFramework is the study's core.ShardFactory for a campaign of
// shards effective shards. A one-shard campaign is the paper's procedure,
// so its shard is the study's own post-funnel framework and world. With
// more shards, each forks the study's world on a shard-private virtual
// clock (synth.World.Fork), so every shard sees the Internet a fresh build
// from the study seed would serve, with fully isolated handler state
// (tracker ID counters, timestamp cookies), and seeds its framework with
// Seed ^ shard for its channel-visit order and TV identity.
func (s *Study) shardFramework(shards int) core.ShardFactory {
	return func(shard int) (*core.Framework, error) {
		world, fw := s.World, s.Framework
		if shards > 1 {
			clk := clock.NewVirtual(studyStart)
			world = s.World.Fork(clk)
			fw = newFramework(s.opts, s.injector, world, clk, shard)
		}
		s.worldsMu.Lock()
		if s.shardWorlds == nil {
			s.shardWorlds = make(map[int]*synth.World)
		}
		s.shardWorlds[shard] = world
		s.worldsMu.Unlock()
		return fw, nil
	}
}

// Run executes a single named run (useful for examples and ablations).
func (s *Study) Run(name store.RunName) (*store.RunData, error) {
	return s.RunContext(context.Background(), name)
}

// RunContext is Run with cooperative cancellation: a cancelled context
// yields the partial run data collected so far with the context's error.
// The run is the campaign ExecuteRunsContext would measure with
// Options.Runs narrowed to the named spec.
func (s *Study) RunContext(ctx context.Context, name store.RunName) (*store.RunData, error) {
	for _, spec := range s.opts.Runs {
		if spec.Name == name {
			ds, err := s.campaign(ctx, []core.RunSpec{spec}, s.opts.shards(), -1, nil)
			if ds == nil || len(ds.Runs) == 0 {
				return nil, err
			}
			return ds.Runs[0], err
		}
	}
	return nil, fmt.Errorf("hbbtvlab: unknown run %q", name)
}
