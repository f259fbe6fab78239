package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// TestPoolTelemetryCounters runs the sharded engine with telemetry and
// checks that the counters and the span trace reflect the work done.
func TestPoolTelemetryCounters(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 4
	channels := poolChannels(seed, scale)
	if len(channels) < shards {
		t.Fatalf("world too small: %d channels", len(channels))
	}
	specs := poolSpecs()

	reg := telemetry.New(telemetry.Options{Shards: shards})
	ctl := reg.Controller(clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)).Now)
	pool := &Pool{
		Shards:    shards,
		Workers:   shards,
		Factory:   poolFactory(seed, scale, reg, nil),
		Telemetry: ctl,
	}
	ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	// Every (run, available channel) pair is one visit; skips account for
	// per-run availability gaps.
	visited := snap.Counters["core_channels_visited"]
	skipped := snap.Counters["core_channels_skipped"]
	want := uint64(len(channels) * len(specs))
	if visited+skipped != want {
		t.Errorf("visited(%d)+skipped(%d) = %d, want %d", visited, skipped, visited+skipped, want)
	}
	measuredChannels := 0
	for _, run := range ds.Runs {
		measuredChannels += len(run.Channels)
	}
	if visited != uint64(measuredChannels) {
		t.Errorf("core_channels_visited = %d, dataset has %d channel visits", visited, measuredChannels)
	}
	if got := snap.Counters["proxy_flows_recorded"]; got == 0 {
		t.Error("proxy_flows_recorded = 0; recorder not instrumented")
	}
	if got := snap.Counters["webos_tunes"]; got < visited {
		t.Errorf("webos_tunes = %d, want >= %d", got, visited)
	}
	if got := snap.Counters["merge_runs"]; got != uint64(len(specs)) {
		t.Errorf("merge_runs = %d, want %d", got, len(specs))
	}
	if got := snap.Counters["core_runs_completed"]; got != uint64(shards*len(specs)) {
		t.Errorf("core_runs_completed = %d, want %d", got, shards*len(specs))
	}
	if got := snap.Gauges["core_shards_active"]; got != 0 {
		t.Errorf("core_shards_active = %d after completion, want 0", got)
	}
	if got := snap.Histograms["core_channel_flows"].Count; got != visited {
		t.Errorf("core_channel_flows count = %d, want %d", got, visited)
	}

	// Every shard slot records one run span per spec, and the controller
	// slot one merge span per spec.
	runSpans, mergeSpans := make(map[int]int), make(map[int]int)
	for _, sp := range reg.Trace().Spans {
		switch sp.Kind {
		case telemetry.SpanRun:
			runSpans[sp.Shard]++
		case telemetry.SpanMerge:
			mergeSpans[sp.Shard]++
		}
	}
	wantRuns := make(map[int]int, shards)
	for s := 0; s < shards; s++ {
		wantRuns[s] = len(specs)
	}
	if !reflect.DeepEqual(runSpans, wantRuns) {
		t.Errorf("run spans per slot = %v, want %v", runSpans, wantRuns)
	}
	if want := map[int]int{-1: len(specs)}; !reflect.DeepEqual(mergeSpans, want) {
		t.Errorf("merge spans per slot = %v, want %v", mergeSpans, want)
	}
	// Per-shard breakdown must cover every shard (each measured channels).
	if len(snap.Shards) != shards {
		t.Errorf("per-shard breakdown has %d entries, want %d", len(snap.Shards), shards)
	}
}

// TestPoolTelemetryDoesNotChangeDigest: at the pool level, running with a
// registry attached must produce the byte-identical dataset.
func TestPoolTelemetryDoesNotChangeDigest(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 4
	channels := poolChannels(seed, scale)
	specs := poolSpecs()

	plain := &Pool{Shards: shards, Workers: 2, Factory: poolFactory(seed, scale, nil, nil)}
	dsPlain, err := plain.ExecuteRuns(context.Background(), specs, channels)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New(telemetry.Options{Shards: shards})
	instrumented := &Pool{
		Shards:    shards,
		Workers:   2,
		Factory:   poolFactory(seed, scale, reg, nil),
		Telemetry: reg.Controller(nil),
	}
	dsTele, err := instrumented.ExecuteRuns(context.Background(), specs, channels)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := datasetDigest(t, dsPlain), datasetDigest(t, dsTele); a != b {
		t.Fatalf("telemetry changed the dataset digest: %s != %s", a, b)
	}
}
