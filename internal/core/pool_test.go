package core

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// poolSpecs are two shortened measurement runs (one General-style, one
// color-style) — enough to exercise the randomized visit order, the
// interaction sequence, and the collection path without paper-length
// watches.
func poolSpecs() []RunSpec {
	return []RunSpec{
		{Name: store.RunGeneral,
			Date:  time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC),
			Watch: 120 * time.Second, ShotEvery: 60 * time.Second},
		{Name: store.RunRed,
			Date:   time.Date(2023, 9, 14, 9, 0, 0, 0, time.UTC),
			Button: appmodel.KeyRed,
			Watch:  120 * time.Second, ShotEvery: 38 * time.Second},
	}
}

// poolChannels builds the canonical channel list once (the funnel's stand-
// in for tests: every generated HbbTV channel, in generation order).
func poolChannels(seed int64, scale float64) []*dvb.Service {
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	return channels
}

// poolFactory is the test ShardFactory: an isolated world per shard from
// the study seed, framework seeded seed ^ shard. reg, when non-nil, gives
// each shard its own telemetry slot on its own virtual clock. mutate,
// when non-nil, may rewire the shard's virtual Internet before the
// framework starts.
func poolFactory(seed int64, scale float64, reg *telemetry.Registry, mutate func(shard int, w *synth.World)) ShardFactory {
	return func(shard int) (*Framework, error) {
		clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
		world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
		if mutate != nil {
			mutate(shard, world)
		}
		return New(Config{
			Internet:     world.Internet,
			Seed:         seed ^ int64(shard),
			Clock:        clk,
			Availability: world.Availability,
			Telemetry:    reg.Shard(shard, clk.Now),
		}), nil
	}
}

// TestPoolExecuteShardMatchesExecuteRuns: a fleet collector's
// ExecuteShard is the in-process shard loop, so merging every shard's runs
// reproduces ExecuteRuns byte for byte; a shard past the clamped shard
// count gets empty runs without a framework ever being built.
func TestPoolExecuteShardMatchesExecuteRuns(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 3
	ctx := context.Background()
	channels := poolChannels(seed, scale)
	specs := poolSpecs()
	pool := &Pool{Shards: shards, Workers: 2, Factory: poolFactory(seed, scale, nil, nil)}
	want, err := pool.ExecuteRuns(ctx, specs, channels)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}
	perShard := make([][]*store.RunData, shards)
	for s := range perShard {
		if perShard[s], err = pool.ExecuteShard(ctx, s, specs, channels); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	got := &store.Dataset{}
	for si := range specs {
		runs := make([]*store.RunData, shards)
		for s := range perShard {
			runs[s] = perShard[s][si]
		}
		got.Runs = append(got.Runs, store.MergeRunShards(order, runs, nil))
	}
	if g, w := datasetDigest(t, got), datasetDigest(t, want); g != w {
		t.Fatalf("merged ExecuteShard digest %s != ExecuteRuns digest %s", g, w)
	}

	idle := &Pool{Shards: len(channels) + 2, Factory: func(int) (*Framework, error) {
		t.Fatal("factory called for a shard that owns no channels")
		return nil, nil
	}}
	runs, err := idle.ExecuteShard(ctx, len(channels)+1, specs, channels)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.Name != specs[i].Name || len(run.Channels)+len(run.Flows)+len(run.Logs) != 0 {
			t.Fatalf("idle shard run %d = %+v, want an empty %s run", i, run, specs[i].Name)
		}
	}
}

// flowCount counts the flows of every run in ds.
func flowCount(ds *store.Dataset) int {
	n := 0
	for _, run := range ds.Runs {
		n += len(run.Flows)
	}
	return n
}

func datasetDigest(t *testing.T, ds *store.Dataset) string {
	t.Helper()
	digest, err := ds.Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return digest
}

// TestPoolDigestIndependentOfWorkers is the engine's core guarantee: for a
// fixed shard count, the merged dataset is byte-identical whether 1, 4, or
// 8 workers execute the shards.
func TestPoolDigestIndependentOfWorkers(t *testing.T) {
	const seed, scale = 7, 0.04
	channels := poolChannels(seed, scale)
	specs := poolSpecs()

	digests := make(map[int]string)
	var sizes []int
	for _, workers := range []int{1, 4, 8} {
		pool := &Pool{Workers: workers, Factory: poolFactory(seed, scale, nil, nil)}
		ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(ds.Runs) != len(specs) {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(ds.Runs), len(specs))
		}
		digests[workers] = datasetDigest(t, ds)
		sizes = append(sizes, flowCount(ds))

		// Well-formedness: channels appear in canonical order.
		rank := make(map[string]int, len(channels))
		for i, svc := range channels {
			rank[svc.Name] = i
		}
		for _, run := range ds.Runs {
			last := -1
			for _, ci := range run.Channels {
				r, ok := rank[ci.Name]
				if !ok {
					t.Fatalf("workers=%d: unknown channel %q", workers, ci.Name)
				}
				if r <= last {
					t.Fatalf("workers=%d run %s: channel order not canonical", workers, run.Name)
				}
				last = r
			}
			for i, f := range run.Flows {
				if f.ID != int64(i+1) {
					t.Fatalf("workers=%d run %s: flow IDs not sequential after merge", workers, run.Name)
				}
			}
		}
	}
	if digests[1] != digests[4] || digests[4] != digests[8] {
		t.Fatalf("digests differ across worker counts:\n1: %s\n4: %s\n8: %s\n(flows: %v)",
			digests[1], digests[4], digests[8], sizes)
	}
	if sizes[0] == 0 {
		t.Fatal("pool produced no flows")
	}
}

// TestPoolShardCountChangesPartition documents the flip side: the shard
// count (unlike the worker count) is part of the experiment definition, so
// changing it changes the dataset.
func TestPoolShardCountChangesPartition(t *testing.T) {
	const seed, scale = 7, 0.04
	channels := poolChannels(seed, scale)
	specs := poolSpecs()[:1]

	run := func(shards int) string {
		pool := &Pool{Shards: shards, Workers: 2, Factory: poolFactory(seed, scale, nil, nil)}
		ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return datasetDigest(t, ds)
	}
	if run(2) == run(4) {
		t.Fatal("different shard counts produced identical datasets; partition not effective")
	}
}

// TestPoolCancellationPartialDataset cancels the context from inside the
// first application request of the always-on-air teleshopping channel, so
// cancellation strikes mid-run deterministically early. The engine must
// return ctx's error together with a well-formed partial dataset.
func TestPoolCancellationPartialDataset(t *testing.T) {
	const seed, scale = 11, 0.04
	channels := poolChannels(seed, scale)
	specs := poolSpecs()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	mutate := func(shard int, w *synth.World) {
		// Every app loads the shared font CDN; the first hit anywhere
		// cancels the whole engine.
		w.Internet.HandleFunc("tvfonts.eu", func(wr http.ResponseWriter, r *http.Request) {
			once.Do(cancel)
			wr.Header().Set("Content-Type", "text/css")
		})
	}
	pool := &Pool{Workers: 4, Factory: poolFactory(seed, scale, nil, mutate)}
	ds, err := pool.ExecuteRuns(ctx, specs, channels)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds == nil || len(ds.Runs) == 0 {
		t.Fatal("cancellation returned no partial dataset")
	}
	if len(ds.Runs) > len(specs) {
		t.Fatalf("partial dataset has %d runs, more than the %d specs", len(ds.Runs), len(specs))
	}
	known := make(map[string]bool, len(channels))
	for _, svc := range channels {
		known[svc.Name] = true
	}
	rank := make(map[string]int, len(channels))
	for i, svc := range channels {
		rank[svc.Name] = i
	}
	for _, run := range ds.Runs {
		if run.Name == "" {
			t.Fatal("partial run lost its identity")
		}
		for _, f := range run.Flows {
			if f.Channel != "" && !known[f.Channel] {
				t.Fatalf("partial run %s: flow attributed to unknown channel %q", run.Name, f.Channel)
			}
		}
		// Per-channel outcomes: every outcome names a known channel, in
		// canonical order, and the channels the cancelled engine never
		// reached are recorded as skipped — not silently absent.
		last := -1
		skipped := 0
		for _, o := range run.Outcomes {
			r, ok := rank[o.Channel]
			if !ok {
				t.Fatalf("partial run %s: outcome for unknown channel %q", run.Name, o.Channel)
			}
			if r <= last {
				t.Fatalf("partial run %s: outcomes not in canonical channel order", run.Name)
			}
			last = r
			if o.Status == store.OutcomeSkipped {
				skipped++
				if strings.Contains(o.Error, "cancelled") && o.Attempts != 0 {
					t.Fatalf("partial run %s: cancelled channel %s shows %d attempts", run.Name, o.Channel, o.Attempts)
				}
			}
		}
		visited := countOutcomes(run)[store.OutcomeOK]
		if visited != len(run.Channels) {
			t.Errorf("partial run %s: %d ok outcomes but %d measured channels",
				run.Name, visited, len(run.Channels))
		}
	}
	// Cancellation struck during the very first application request, so at
	// least one run must record unvisited channels as skipped.
	anySkipped := false
	for _, run := range ds.Runs {
		for _, o := range run.Outcomes {
			if o.Status == store.OutcomeSkipped && strings.Contains(o.Error, "cancelled") {
				anySkipped = true
			}
		}
	}
	if !anySkipped {
		t.Error("no channel was marked skipped by cancellation")
	}
	// The partial dataset must survive the persistence path.
	if _, err := ds.Digest(); err != nil {
		t.Fatalf("partial dataset digest: %v", err)
	}
}

// TestPoolPanicRecovery makes one channel's application server panic on
// every request. The owning shard must recover, log, and count the panic,
// note it on the victim's attempt span — and keep measuring its remaining
// channels.
func TestPoolPanicRecovery(t *testing.T) {
	const seed, scale = 13, 0.04
	channels := poolChannels(seed, scale)
	specs := poolSpecs()

	// The teleshopping location-ad channel is on air in every run, so the
	// panic fires in each run regardless of availability sampling.
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
	victim := world.ChannelBySlug("independentshops01")
	if victim == nil {
		t.Fatal("no independentshops01 channel in world")
	}
	mutate := func(shard int, w *synth.World) {
		w.Internet.HandleFunc(victim.AppHost, func(wr http.ResponseWriter, r *http.Request) {
			panic("synthetic app crash")
		})
	}
	reg := telemetry.New(telemetry.Options{Shards: DefaultShards})
	pool := &Pool{
		Workers:   4,
		Factory:   poolFactory(seed, scale, reg, mutate),
		Telemetry: reg.Controller(nil),
	}
	ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if len(ds.Runs) != len(specs) {
		t.Fatalf("%d runs, want %d", len(ds.Runs), len(specs))
	}
	checkPanicNotes(t, reg.Trace(), victim.Service.Name, specs)
	for _, run := range ds.Runs {
		if run.RecoveredPanics == 0 {
			t.Errorf("run %s: no recovered panics counted", run.Name)
		}
		logged := false
		for _, l := range run.Logs {
			if l.Kind == webos.LogError && strings.Contains(l.Detail, "recovered panic") &&
				strings.Contains(l.Detail, victim.Service.Name) {
				logged = true
				break
			}
		}
		if !logged {
			t.Errorf("run %s: recovered panic not logged", run.Name)
		}
		// The victim's shard kept measuring: the run still covers (almost)
		// all available channels, not just the ones before the crash.
		if len(run.Channels) < len(channels)/2 {
			t.Errorf("run %s: only %d of %d channels measured; shard died?",
				run.Name, len(run.Channels), len(channels))
		}
	}
}

// checkPanicNotes asserts that in every run the victim's attempt span
// carries exactly one panic.recovered note naming the victim, and that
// no other span carries one.
func checkPanicNotes(t *testing.T, tr *telemetry.Trace, victim string, specs []RunSpec) {
	t.Helper()
	type slotID struct {
		shard int
		id    uint64
	}
	byID := make(map[slotID]*telemetry.Span, len(tr.Spans))
	for i := range tr.Spans {
		byID[slotID{tr.Spans[i].Shard, tr.Spans[i].ID}] = &tr.Spans[i]
	}
	runOf := func(sp *telemetry.Span) string {
		for sp != nil && sp.Kind != telemetry.SpanRun {
			sp = byID[slotID{sp.Shard, sp.Parent}]
		}
		if sp == nil {
			return ""
		}
		return sp.Name
	}
	attempts := make(map[string]int)
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		panics := 0
		for _, n := range sp.Notes {
			if n.Kind != telemetry.EventPanic {
				continue
			}
			panics++
			if n.Detail != victim {
				t.Errorf("panic note on %s span %q names %q, want %q", sp.Kind, sp.Name, n.Detail, victim)
			}
		}
		switch {
		case sp.Kind == telemetry.SpanAttempt && sp.Name == victim:
			attempts[runOf(sp)]++
			if panics != 1 {
				t.Errorf("run %s: victim attempt span %d carries %d panic notes, want 1", runOf(sp), sp.ID, panics)
			}
		case panics > 0:
			t.Errorf("%s span %q on shard %d carries a panic note; only the victim's attempt may", sp.Kind, sp.Name, sp.Shard)
		}
	}
	for _, spec := range specs {
		if attempts[string(spec.Name)] == 0 {
			t.Errorf("run %s: no victim attempt span in the trace", spec.Name)
		}
	}
}

// TestPoolFactoryErrorFailsOnlyThatShard: a shard whose framework cannot
// be built is reported, while the other shards still contribute data.
func TestPoolFactoryErrorFailsOnlyThatShard(t *testing.T) {
	const seed, scale = 3, 0.04
	channels := poolChannels(seed, scale)
	specs := poolSpecs()[:1]

	inner := poolFactory(seed, scale, nil, nil)
	factory := func(shard int) (*Framework, error) {
		if shard == 1 {
			return nil, errors.New("shard 1 hardware on fire")
		}
		return inner(shard)
	}
	pool := &Pool{Shards: 4, Workers: 2, Factory: factory}
	ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("err = %v, want shard 1 failure", err)
	}
	if len(ds.Runs) != 1 || len(ds.Runs[0].Channels) == 0 {
		t.Fatal("surviving shards contributed no data")
	}
}
