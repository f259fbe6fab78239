package hbbtvlab

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// The differential fleet suite: a campaign split across shard datasets —
// in-process or across real child processes — must merge to a dataset
// whose digest is byte-identical to the single-process sharded run of the
// same study. This is the property that lets a fleet of independent
// collectors stand in for one machine.

// fleetOptions is the suite's base experiment: small world, sharded
// engine with shards locked to the fleet width under test.
func fleetOptions(seed int64, shards int) Options {
	return Options{
		Seed:        seed,
		Scale:       0.02,
		ProbeWatch:  20 * time.Second,
		Parallelism: 2,
		Shards:      shards,
	}
}

// executeFleet measures every shard of an N-way fleet, each on a fresh
// Study (collectors share nothing in a real fleet), and returns the shard
// datasets.
func executeFleet(t *testing.T, opts Options, n int) []*store.Dataset {
	t.Helper()
	shards := make([]*store.Dataset, n)
	for i := 0; i < n; i++ {
		st, err := NewStudyChecked(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.ExecuteShard(i, n)
		if err != nil && !DegradedOnly(err) {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if ds.Shard == nil {
			t.Fatalf("shard %d/%d dataset has no manifest", i, n)
		}
		shards[i] = ds
	}
	return shards
}

// digestOf is the suite's digest helper.
func digestOf(t *testing.T, ds *store.Dataset) string {
	t.Helper()
	d, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// roundTripShards persists each shard dataset through save and loads
// them all back through one shared dedup table — the exact path
// hbbtv-merge takes.
func roundTripShards(t *testing.T, shards []*store.Dataset, save func(io.Writer, *store.Dataset) error) ([]*store.Dataset, *store.Dedup) {
	t.Helper()
	dd := store.NewDedup()
	out := make([]*store.Dataset, len(shards))
	for i, ds := range shards {
		var buf bytes.Buffer
		if err := save(&buf, ds); err != nil {
			t.Fatalf("save shard %d: %v", i, err)
		}
		loaded, err := store.LoadDedup(bytes.NewReader(buf.Bytes()), dd)
		if err != nil {
			t.Fatalf("load shard %d: %v", i, err)
		}
		if loaded.Shard == nil {
			t.Fatalf("shard %d manifest lost in the round trip", i)
		}
		out[i] = loaded
	}
	return out, dd
}

// TestFleetDigestParity is the tentpole invariant over 3 seeds × N=1/2/4:
// merging the N shard datasets — both in memory and after a snapshot
// round trip with cross-shard dedup — reproduces the single-process
// sharded run byte for byte. For N=1 the paper's serial procedure
// (Parallelism 0) must give that same digest too.
func TestFleetDigestParity(t *testing.T) {
	for _, seed := range []int64{1, 7, 321} {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				opts := fleetOptions(seed, n)
				ref, err := NewStudyChecked(opts)
				if err != nil {
					t.Fatal(err)
				}
				refDS, err := ref.ExecuteRuns()
				if err != nil {
					t.Fatal(err)
				}
				want := digestOf(t, refDS)
				if n == 1 {
					// A one-shard campaign is the paper's procedure: the
					// Parallelism-0 study is a third reference.
					serial := fleetOptions(seed, 0)
					serial.Parallelism = 0
					st, err := NewStudyChecked(serial)
					if err != nil {
						t.Fatal(err)
					}
					ds, err := st.ExecuteRuns()
					if err != nil {
						t.Fatal(err)
					}
					if got := digestOf(t, ds); got != want {
						t.Errorf("Parallelism 0 digest %s != Parallelism 2 Shards 1 digest %s", got, want)
					}
				}

				shards := executeFleet(t, opts, n)
				merged, err := Merge(shards...)
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				if got := digestOf(t, merged); got != want {
					t.Errorf("in-memory merge digest %s != single-process %s", got, want)
				}
				if merged.Shard != nil {
					t.Error("merged dataset still carries a shard manifest")
				}

				persisted, dd := roundTripShards(t, shards, saveSnapshot)
				merged2, err := Merge(persisted...)
				if err != nil {
					t.Fatalf("merge persisted: %v", err)
				}
				if got := digestOf(t, merged2); got != want {
					t.Errorf("persisted merge digest %s != single-process %s", got, want)
				}
				if n > 1 {
					// Every shard's world serves the same tracker payloads, so
					// the shared table must have found cross-shard duplicates.
					if stats := dd.Stats(); stats.BlobsShared == 0 && stats.HeadersShared == 0 {
						t.Error("cross-shard dedup shared nothing")
					}
				}
			})
		}
	}
}

// TestFleetChaosDigestParity proves the parity holds for fault-degraded
// campaigns: shards executed under deterministic fault injection merge to
// the same digest as the degraded single-process run.
func TestFleetChaosDigestParity(t *testing.T) {
	const n = 4
	opts := chaosOptions(2) // Shards: 4 — the fleet width must match
	ref, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := ref.ExecuteRunsContext(context.Background())
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	want := digestOf(t, refDS)

	shards := executeFleet(t, opts, n)
	// Shards in the gzip-JSON files earlier versions wrote must load with
	// their manifests and merge identically too.
	persisted, _ := roundTripShards(t, shards, saveReferenceJSON)
	merged, err := Merge(persisted...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := digestOf(t, merged); got != want {
		t.Errorf("degraded fleet merge digest %s != single-process %s", got, want)
	}
}

// TestFleetWiderThanChannels: a fleet wider than the channel list leaves
// its tail collectors with empty partitions, which must merge neutrally.
func TestFleetWiderThanChannels(t *testing.T) {
	opts := Options{Seed: 5, Scale: 0.004, ProbeWatch: 20 * time.Second, Parallelism: 1, Shards: 64}
	ref, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatal(err)
	}
	channels, err := ref.Selected()
	if err != nil {
		t.Fatal(err)
	}
	if len(channels) >= 64 {
		t.Skipf("world too large (%d channels) for the clamp case", len(channels))
	}
	refDS, err := ref.ExecuteRuns()
	if err != nil {
		t.Fatal(err)
	}
	shards := executeFleet(t, opts, 64)
	empty := 0
	for _, ds := range shards {
		if ds.Shard.AssignedChannels() == 0 {
			empty++
		}
	}
	if empty != 64-len(channels) {
		t.Errorf("%d empty shards, want %d", empty, 64-len(channels))
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got, want := digestOf(t, merged), digestOf(t, refDS); got != want {
		t.Errorf("clamped fleet merge digest %s != single-process %s", got, want)
	}
}

// TestMergeManifestVerification exercises the merge's rejection paths:
// mismatched parameters, missing and duplicate shards, no manifest.
func TestMergeManifestVerification(t *testing.T) {
	opts := fleetOptions(1, 2)
	shards := executeFleet(t, opts, 2)

	if _, err := Merge(shards[0]); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Errorf("missing shard not rejected: %v", err)
	}
	if _, err := Merge(shards[0], shards[0]); err == nil || !strings.Contains(err.Error(), "duplicate shard") {
		t.Errorf("duplicate shard not rejected: %v", err)
	}
	if _, err := Merge(shards[0], &store.Dataset{}); err == nil || !strings.Contains(err.Error(), "no shard manifest") {
		t.Errorf("manifest-less dataset not rejected: %v", err)
	}

	otherSeed := executeFleet(t, fleetOptions(2, 2), 2)
	if _, err := Merge(shards[0], otherSeed[1]); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch not rejected: %v", err)
	}

	otherWidth := executeFleet(t, fleetOptions(1, 4), 4)
	if _, err := Merge(shards[0], otherWidth[1]); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("width mismatch not rejected: %v", err)
	}

	faulty, err := NewStudyChecked(Options{
		Seed: 1, Scale: 0.02, ProbeWatch: 20 * time.Second, Parallelism: 2, Shards: 2,
		Faults: &faults.Config{Rate: 0.2},
		Retry:  core.RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultyDS, err := faulty.ExecuteShard(1, 2)
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	if _, err := Merge(shards[0], faultyDS); err == nil || !strings.Contains(err.Error(), "fault config") {
		t.Errorf("fault-config mismatch not rejected: %v", err)
	}
}

// TestExecuteShardValidation covers the shard-argument and telemetry
// sizing guards.
func TestExecuteShardValidation(t *testing.T) {
	st := NewStudy(Options{Seed: 1, Scale: 0.01, ProbeWatch: 20 * time.Second})
	if _, err := st.ExecuteShard(0, 0); err == nil {
		t.Error("of=0 accepted")
	}
	if _, err := st.ExecuteShard(-1, 2); err == nil {
		t.Error("negative shard accepted")
	}
	if _, err := st.ExecuteShard(2, 2); err == nil {
		t.Error("shard == of accepted")
	}

	small := NewStudy(Options{
		Seed: 1, Scale: 0.01, ProbeWatch: 20 * time.Second,
		Telemetry: NewTelemetry(Options{}), // 1 slot: serial sizing
	})
	if _, err := small.ExecuteShard(3, 4); err == nil || !strings.Contains(err.Error(), "shard slot") {
		t.Errorf("undersized telemetry registry accepted: %v", err)
	}
	sized := NewStudy(Options{
		Seed: 1, Scale: 0.01, ProbeWatch: 20 * time.Second,
		Telemetry: NewTelemetry(Options{Parallelism: 1, Shards: 4}),
	})
	ds, err := sized.ExecuteShard(3, 4)
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	if ds.Telemetry == nil {
		t.Error("shard dataset carries no telemetry snapshot")
	}
}

// TestFleetChildProcesses is the end-to-end topology test: real collector
// processes write shard snapshots, hbbtv-merge combines and verifies them
// against the single-process run — reliable and fault-injected.
func TestFleetChildProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process fleet suite skipped in -short")
	}
	dir := t.TempDir()
	measure := buildTool(t, dir, "hbbtv-measure")
	merge := buildTool(t, dir, "hbbtv-merge")

	cases := []struct {
		name  string
		n     int
		extra []string
	}{
		{name: "n=2", n: 2},
		{name: "n=4", n: 4},
		{name: "n=2-chaos", n: 2, extra: []string{"-fault-rate", "0.25", "-fault-seed", "11", "-retries", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, tc.name)
			if err := os.MkdirAll(caseDir, 0o755); err != nil {
				t.Fatal(err)
			}
			base := append([]string{"-seed", "321", "-scale", "0.02"}, tc.extra...)

			single := filepath.Join(caseDir, "single.snap")
			runTool(t, measure, append(base, "-j", "2", "-shards", fmt.Sprint(tc.n), "-snapshot", single)...)

			shardFiles := make([]string, tc.n)
			for i := 0; i < tc.n; i++ {
				shardFiles[i] = filepath.Join(caseDir, fmt.Sprintf("shard%d.snap", i))
				runTool(t, measure, append(base,
					"-shard", fmt.Sprintf("%d/%d", i, tc.n), "-snapshot", shardFiles[i])...)
			}

			mergedOut := filepath.Join(caseDir, "merged.snap")
			out := runTool(t, merge, append([]string{"-verify", single, "-snapshot", mergedOut}, shardFiles...)...)
			if !strings.Contains(out, "verified: digest matches") {
				t.Errorf("merge output lacks verification line:\n%s", out)
			}

			f, err := os.Open(mergedOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			merged, err := store.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Shard != nil {
				t.Error("merged snapshot still carries a shard manifest")
			}
		})
	}
}

// buildTool compiles one of the repo's commands into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// repoRoot locates the module root (the tests run from it already, but be
// explicit for clarity).
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// runTool runs a built binary and fails the test on a non-zero exit.
func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}
