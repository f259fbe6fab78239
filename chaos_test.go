package hbbtvlab

import (
	"context"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// chaosOptions is the shared experiment definition of the chaos suite: a
// small study under deterministic fault injection with the resilience
// layer enabled. Everything that defines the experiment — seed, scale,
// shard count, fault plan, retry policy — is fixed here; tests vary only
// the worker count, which must never change a byte of the result.
func chaosOptions(parallelism int) Options {
	return Options{
		Seed:        321,
		Scale:       0.04,
		ProbeWatch:  20 * time.Second,
		Parallelism: parallelism,
		Shards:      4,
		Faults: &faults.Config{
			Seed: 11,
			Rate: 0.25,
		},
		Retry: core.RetryPolicy{
			MaxAttempts:     2,
			Backoff:         2 * time.Second,
			VisitDeadline:   5 * time.Minute,
			QuarantineAfter: 2,
		},
	}
}

// runChaosStudy executes the chaos experiment and returns the (possibly
// degraded) dataset. Degradation is the point of the suite, so only
// non-degraded errors are fatal.
func runChaosStudy(t *testing.T, opts Options) *store.Dataset {
	t.Helper()
	study, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.SelectChannels(); err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	ds, err := study.ExecuteRuns()
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	if ds == nil {
		t.Fatal("chaos study returned no dataset")
	}
	return ds
}

// TestChaosDeterminism is the acceptance test of the fault-injection
// layer: under a fixed (Seed, Faults.Seed) pair the degraded campaign —
// which channels fail, on which attempt, with which fault — must be
// byte-identical for every worker count. Faults are scheduled purely by
// (seed, host, channel, attempt) and channels are pinned to shards, so
// scheduling may change wall-clock time but never the dataset.
func TestChaosDeterminism(t *testing.T) {
	digest := func(p int) (string, *store.Dataset) {
		t.Helper()
		ds := runChaosStudy(t, chaosOptions(p))
		d, err := ds.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d, ds
	}

	base, ds := digest(1)
	for _, p := range []int{2, 4, 8} {
		if got, _ := digest(p); got != base {
			t.Fatalf("dataset digest differs between Parallelism=1 and Parallelism=%d:\n  %s\n  %s", p, base, got)
		}
	}

	// The fault plan must actually have bitten: a chaos run with no
	// retries and no failed channels proves nothing.
	var ok, failed, skipped, quarantined, retried int
	for _, run := range ds.Runs {
		if len(run.Outcomes) == 0 {
			t.Fatalf("run %s has no per-channel outcomes", run.Name)
		}
		for _, o := range run.Outcomes {
			switch o.Status {
			case store.OutcomeOK:
				ok++
			case store.OutcomeFailed:
				failed++
				if o.Error == "" {
					t.Errorf("failed outcome for %s has no error text", o.Channel)
				}
			case store.OutcomeSkipped:
				skipped++
			case store.OutcomeQuarantined:
				quarantined++
			default:
				t.Errorf("unknown outcome status %q for %s", o.Status, o.Channel)
			}
			if o.Attempts > 1 {
				retried++
			}
		}
	}
	t.Logf("outcomes: ok=%d failed=%d skipped=%d quarantined=%d retried=%d",
		ok, failed, skipped, quarantined, retried)
	if ok == 0 {
		t.Error("no channel succeeded — fault rate too high to be a useful experiment")
	}
	if failed == 0 {
		t.Error("no channel failed — fault injection did not bite")
	}
	if retried == 0 {
		t.Error("no channel was retried — resilience layer did not engage")
	}
	if quarantined == 0 {
		t.Error("no channel was quarantined — consecutive-failure tracking did not engage")
	}
}

// TestChaosAnalysisTolerates: the analysis pipeline must accept a
// degraded dataset — partial channel coverage, failed and quarantined
// outcomes — and the coverage index must name exactly the channels whose
// runs are incomplete.
func TestChaosAnalysisTolerates(t *testing.T) {
	ds, _ := chaosWorld(t)

	res := Analyze(ds)
	if res == nil {
		t.Fatal("Analyze returned nil for degraded dataset")
	}
	if len(res.TableI) != len(ds.Runs) {
		t.Errorf("Table I has %d rows, want %d", len(res.TableI), len(ds.Runs))
	}
	requests := 0
	for _, row := range res.TableI {
		requests += row.HTTPReq + row.HTTPSReq
	}
	if requests == 0 {
		t.Error("degraded dataset analyzed to zero requests")
	}

	ix, err := store.BuildIndex(context.Background(), ds, store.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Coverage == nil {
		t.Fatal("index has no coverage report")
	}
	cov := ix.Coverage
	if cov.Runs != len(ds.Runs) {
		t.Errorf("Coverage.Runs = %d, want %d", cov.Runs, len(ds.Runs))
	}
	if cov.Failed == 0 {
		t.Error("coverage reports no failed visits under fault injection")
	}
	if len(cov.Partial) == 0 {
		t.Error("coverage claims complete despite failed channels")
	}
	for _, name := range cov.Partial {
		if n := cov.ChannelRuns[name]; n >= cov.Runs {
			t.Errorf("channel %s listed partial but has %d/%d runs", name, n, cov.Runs)
		}
	}
}

// TestChaosTelemetryCounters: the resilience counters must register the
// injected faults and retries, and — like every other engine output —
// must not depend on the worker count.
func TestChaosTelemetryCounters(t *testing.T) {
	snapshot := func(p int) *telemetry.Snapshot {
		t.Helper()
		opts := chaosOptions(p)
		opts.Telemetry = NewTelemetry(opts)
		ds := runChaosStudy(t, opts)
		if ds.Telemetry == nil {
			t.Fatal("dataset carries no telemetry snapshot")
		}
		return ds.Telemetry
	}

	snap := snapshot(2)
	for _, counter := range []string{
		"core_faults_injected",
		"core_channels_retried",
		"core_channels_failed",
		"core_channels_quarantined",
	} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %s = 0, want > 0", counter)
		}
	}

	other := snapshot(4)
	for _, counter := range []string{
		"core_faults_injected",
		"core_channels_retried",
		"core_channels_failed",
		"core_channels_quarantined",
		"core_channels_visited",
		"core_channels_skipped",
	} {
		if snap.Counters[counter] != other.Counters[counter] {
			t.Errorf("counter %s differs across worker counts: %d vs %d",
				counter, snap.Counters[counter], other.Counters[counter])
		}
	}
}

// TestChaosFaultSeedSensitivity: a different fault seed must schedule a
// different degraded campaign on the same world — otherwise the fault
// seed is not actually feeding the schedule.
func TestChaosFaultSeedSensitivity(t *testing.T) {
	digestFor := func(faultSeed int64) string {
		t.Helper()
		opts := chaosOptions(2)
		opts.Faults.Seed = faultSeed
		ds := runChaosStudy(t, opts)
		d, err := ds.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if digestFor(7) == digestFor(8) {
		t.Fatal("different fault seeds produced identical degraded campaigns")
	}
}

// TestChaosZeroRateMatchesReliable: Faults with Rate 0 must be
// indistinguishable from no fault config at all — the injector must be
// completely inert, not merely rare.
func TestChaosZeroRateMatchesReliable(t *testing.T) {
	reliable := chaosOptions(2)
	reliable.Faults = nil
	reliable.Retry = core.RetryPolicy{}
	dsReliable := runChaosStudy(t, reliable)

	zero := chaosOptions(2)
	zero.Faults = &faults.Config{Seed: 99, Rate: 0}
	zero.Retry = core.RetryPolicy{}
	dsZero := runChaosStudy(t, zero)

	d1, err := dsReliable.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dsZero.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("zero-rate fault config changed the dataset")
	}
}

// TestChaosSnapshotRoundTrip re-runs the snapshot format-equivalence
// contract on a degraded dataset: failed outcomes, retried channels,
// truncated bodies, and telemetry must all survive the binary format
// byte-for-byte. The chaos CI job runs this under -race.
func TestChaosSnapshotRoundTrip(t *testing.T) {
	opts := chaosOptions(2)
	opts.Telemetry = NewTelemetry(opts)
	ds := runChaosStudy(t, opts)
	assertSnapshotRoundTrip(t, ds)
}
