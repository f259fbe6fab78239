package hbbtvlab

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// studyDigest runs a small study with the given options and returns the
// dataset and its digest.
func studyDigest(t *testing.T, opts Options) (*store.Dataset, string) {
	t.Helper()
	opts.Scale = 0.04
	opts.ProbeWatch = 20 * time.Second
	study := NewStudy(opts)
	ds, err := study.ExecuteRuns()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return ds, digest
}

// TestTelemetryDigestInvariance is the tentpole guarantee: enabling
// telemetry must not change Dataset.Digest — for the serial engine and
// for the sharded engine alike. Telemetry reads the virtual clock and
// publishes to shard-local cells outside the measurement state, and the
// snapshot is excluded from the digest by construction; this test proves
// the combination end-to-end.
func TestTelemetryDigestInvariance(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Seed: 321}},
		{"sharded", Options{Seed: 321, Parallelism: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, plain := studyDigest(t, tc.opts)

			withTele := tc.opts
			withTele.Telemetry = NewTelemetry(withTele)
			ds, instrumented := studyDigest(t, withTele)

			if plain != instrumented {
				t.Fatalf("telemetry changed the digest: %s != %s", plain, instrumented)
			}
			if ds.Telemetry == nil {
				t.Fatal("no telemetry snapshot attached to dataset")
			}
			if ds.Telemetry.Counters["core_channels_visited"] == 0 {
				t.Error("snapshot has no channel visits")
			}
			if ds.Telemetry.Counters["proxy_flows_recorded"] == 0 {
				t.Error("snapshot has no recorded flows")
			}
		})
	}
}

// TestTelemetrySnapshotWorkerInvariance: with telemetry enabled, the
// whole persisted artifact — dataset digest AND telemetry snapshot — is
// identical for every worker count, because shard-local publication
// depends only on the shard partition.
func TestTelemetrySnapshotWorkerInvariance(t *testing.T) {
	run := func(workers int) (*store.Dataset, string) {
		opts := Options{Seed: 99, Parallelism: workers}
		opts.Telemetry = NewTelemetry(opts)
		return studyDigest(t, opts)
	}
	ds1, digest1 := run(1)
	ds4, digest4 := run(4)
	if digest1 != digest4 {
		t.Fatalf("digest differs across worker counts: %s != %s", digest1, digest4)
	}
	snap1, err := json.Marshal(ds1.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	snap4, err := json.Marshal(ds4.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap4) {
		t.Fatalf("telemetry snapshot differs across worker counts:\n--- j=1\n%s\n--- j=4\n%s", snap1, snap4)
	}
}

// TestTelemetrySnapshotPersisted: the gzip-JSON format (written by the
// reference writer) carries the snapshot, Load restores it, and the
// loaded dataset's digest still matches the original (the snapshot never
// participates in the digest). TestTraceSurvivesSnapshotRoundTrip covers
// the binary snapshot's telemetry section.
func TestTelemetrySnapshotPersisted(t *testing.T) {
	opts := Options{Seed: 321, Parallelism: 2}
	opts.Telemetry = NewTelemetry(opts)
	ds, digest := studyDigest(t, opts)

	var buf bytes.Buffer
	if err := saveReferenceJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Telemetry == nil {
		t.Fatal("telemetry snapshot lost in save/load round trip")
	}
	if !reflect.DeepEqual(loaded.Telemetry, ds.Telemetry) {
		t.Errorf("snapshot differs after save/load:\n%+v\n%+v", loaded.Telemetry, ds.Telemetry)
	}
	loadedDigest, err := loaded.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if loadedDigest != digest {
		t.Fatalf("digest changed across save/load: %s != %s", loadedDigest, digest)
	}
}
