package hbbtvlab

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// These tests hold the span tracer to the package's determinism
// contract: tracing rides the virtual clock, so (a) enabling it cannot
// change a dataset's digest, (b) the collected span trees are
// deep-equal for any worker count, and (c) a fleet campaign's merged
// trace equals the single-process run's restricted to the shard slots.

// traceStudyOptions is the suite's study shape, telemetry left to the
// caller so on/off pairs compare the same campaign.
func traceStudyOptions(seed int64, j int) Options {
	return Options{
		Seed: seed, Scale: 0.04,
		ProbeWatch:  20 * time.Second,
		Parallelism: j,
		Shards:      4,
	}
}

// degradedOptions layers the chaos suite's fault plan on top, so the
// trace invariance also holds for retried/failed/quarantined visits.
func degradedOptions(seed int64, j int) Options {
	opts := traceStudyOptions(seed, j)
	opts.Faults = &faults.Config{Seed: 11, Rate: 0.25}
	opts.Retry = core.RetryPolicy{
		MaxAttempts:     2,
		Backoff:         2 * time.Second,
		VisitDeadline:   5 * time.Minute,
		QuarantineAfter: 2,
	}
	return opts
}

// executeTraced runs the study (degraded errors tolerated) and returns
// its dataset.
func executeTraced(t *testing.T, label string, opts Options) *store.Dataset {
	t.Helper()
	study, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ds, err := study.Execute(context.Background(), Plan{})
	if err != nil && !DegradedOnly(err) {
		t.Fatalf("%s: %v", label, err)
	}
	if ds == nil {
		t.Fatalf("%s: no dataset", label)
	}
	return ds
}

// TestTracingDoesNotChangeDigest is the observer-effect gate: the same
// campaign measured with and without telemetry must produce
// byte-identical digests — the trace is carried beside the data, never
// inside it. Covers clean and fault-degraded studies.
func TestTracingDoesNotChangeDigest(t *testing.T) {
	shapes := map[string]func(int64, int) Options{
		"clean":    traceStudyOptions,
		"degraded": degradedOptions,
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 321} {
				bare := executeTraced(t, "bare", shape(seed, 4))

				traced := shape(seed, 4)
				traced.Telemetry = NewTelemetry(traced)
				ds := executeTraced(t, "traced", traced)
				if ds.Trace == nil || len(ds.Trace.Spans) == 0 {
					t.Fatalf("seed %d: instrumented run carries no trace", seed)
				}

				d1, err := bare.Digest()
				if err != nil {
					t.Fatal(err)
				}
				d2, err := ds.Digest()
				if err != nil {
					t.Fatal(err)
				}
				if d1 != d2 {
					t.Fatalf("seed %d: tracing changed the digest: %s != %s", seed, d2, d1)
				}
			}
		})
	}
}

// TestTraceWorkerInvariance proves the span trees are deep-equal for
// any -j worker count, across seeds, clean and degraded. This is the
// tracer's core promise: every timestamp, ID, parent link, and
// annotation comes off the virtual clock and the shard-local sequence,
// so scheduling cannot leak in.
func TestTraceWorkerInvariance(t *testing.T) {
	shapes := map[string]func(int64, int) Options{
		"clean":    traceStudyOptions,
		"degraded": degradedOptions,
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			seeds := []int64{1, 321, 77}
			if name == "degraded" {
				seeds = []int64{321} // the chaos plan is seed-specific; one is enough
			}
			for _, seed := range seeds {
				var base *telemetry.Trace
				var baseDigest string
				for _, j := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("seed=%d/j=%d", seed, j)
					opts := shape(seed, j)
					opts.Telemetry = NewTelemetry(opts)
					ds := executeTraced(t, label, opts)
					digest, err := ds.Digest()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if base == nil {
						base, baseDigest = ds.Trace, digest
						continue
					}
					if digest != baseDigest {
						t.Fatalf("%s: digest %s != j=1 digest %s", label, digest, baseDigest)
					}
					if !reflect.DeepEqual(ds.Trace, base) {
						t.Fatalf("%s: trace differs from j=1 (%d vs %d spans)",
							label, len(ds.Trace.Spans), len(base.Spans))
					}
				}
			}
		})
	}
}

// saveLoad round-trips a dataset through a writer and store.Load.
func saveLoad(t *testing.T, ds *store.Dataset, save func(io.Writer, *store.Dataset) error) *store.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestTraceSurvivesSnapshotRoundTrip holds the persisted forms to the
// in-memory trace: both the binary snapshot section and the gzip-JSON
// field (written by the reference writer, read by store.Load) must carry
// the trace losslessly, and a digest computed after the round trip must
// still match (the trace stays outside the hash).
func TestTraceSurvivesSnapshotRoundTrip(t *testing.T) {
	opts := traceStudyOptions(1, 2)
	opts.Telemetry = NewTelemetry(opts)
	ds := executeTraced(t, "round-trip", opts)
	want, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []struct {
		label string
		save  func(io.Writer, *store.Dataset) error
	}{{"format=snapshot", saveSnapshot}, {"format=json", saveReferenceJSON}} {
		label := format.label
		loaded := saveLoad(t, ds, format.save)
		if loaded.Trace == nil {
			t.Fatalf("%s: trace lost in round trip", label)
		}
		if !reflect.DeepEqual(loaded.Trace, ds.Trace) {
			t.Fatalf("%s: trace mutated in round trip", label)
		}
		got, err := loaded.Digest()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Fatalf("%s: digest drifted across round trip: %s != %s", label, got, want)
		}
	}
}

// TestFleetTraceMergesToInProcess is the sharded half of the contract:
// measure every shard of a 4-way fleet in its own study (as separate
// collector processes would), merge, and compare against the
// single-process sharded run — identical digest, and the merged
// snapshot/trace equal to the in-process ones restricted to the shard
// slots (controller-slot data is process-local by design).
func TestFleetTraceMergesToInProcess(t *testing.T) {
	const n = 4
	seed := int64(321)

	inOpts := degradedOptions(seed, 2)
	inOpts.Shards = n
	inOpts.Telemetry = NewTelemetry(inOpts)
	inProc := executeTraced(t, "in-process", inOpts)
	wantDigest, err := inProc.Digest()
	if err != nil {
		t.Fatal(err)
	}

	shards := make([]*store.Dataset, n)
	for i := 0; i < n; i++ {
		opts := degradedOptions(seed, 1)
		opts.Shards = n
		opts.Telemetry = telemetry.New(telemetry.Options{Shards: n})
		study, err := NewStudyChecked(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := study.Execute(context.Background(), Plan{Shard: i, Of: n})
		if err != nil && !DegradedOnly(err) {
			t.Fatalf("shard %d: %v", i, err)
		}
		if ds.Trace == nil {
			t.Fatalf("shard %d carries no trace", i)
		}
		shards[i] = ds
	}

	merged, err := MergeContext(context.Background(), shards...)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := merged.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Fatalf("merged digest %s != in-process %s", gotDigest, wantDigest)
	}

	// The merged trace equals the in-process trace restricted to shard
	// slots (the in-process campaign span lives on the controller slot).
	wantTrace := &telemetry.Trace{}
	for _, sp := range inProc.Trace.Spans {
		if sp.Shard >= 0 {
			wantTrace.Spans = append(wantTrace.Spans, sp)
		}
	}
	for _, d := range inProc.Trace.Dropped {
		if d.Shard >= 0 {
			wantTrace.Dropped = append(wantTrace.Dropped, d)
		}
	}
	if merged.Trace == nil {
		t.Fatal("merged dataset carries no trace")
	}
	if !reflect.DeepEqual(merged.Trace.Spans, wantTrace.Spans) {
		t.Fatalf("merged trace differs from in-process shard-slot trace (%d vs %d spans)",
			len(merged.Trace.Spans), len(wantTrace.Spans))
	}
	if !reflect.DeepEqual(merged.Trace.Dropped, wantTrace.Dropped) {
		t.Fatalf("merged drop counts differ: %+v vs %+v", merged.Trace.Dropped, wantTrace.Dropped)
	}

	// Same restriction for the snapshot: the per-shard counter breakdown
	// agrees; aggregate counters equal the sum of the shard breakdown (the
	// funnel counted once).
	if merged.Telemetry == nil {
		t.Fatal("merged dataset carries no telemetry snapshot")
	}
	inSnap := inProc.Telemetry
	if !reflect.DeepEqual(merged.Telemetry.Shards, inSnap.Shards) {
		t.Fatalf("per-shard breakdowns differ:\nmerged %+v\nin-proc %+v", merged.Telemetry.Shards, inSnap.Shards)
	}
	wantCounters := map[string]uint64{}
	for _, sc := range inSnap.Shards {
		for name, v := range sc.Counters {
			wantCounters[name] += v
		}
	}
	if !reflect.DeepEqual(merged.Telemetry.Counters, wantCounters) {
		t.Fatalf("merged counters differ from shard-slot sum:\nmerged %+v\nwant   %+v",
			merged.Telemetry.Counters, wantCounters)
	}
	if !reflect.DeepEqual(merged.Telemetry.Histograms, inSnap.Histograms) {
		t.Fatalf("merged histograms differ:\nmerged %+v\nin-proc %+v", merged.Telemetry.Histograms, inSnap.Histograms)
	}
}
