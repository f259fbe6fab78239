package hbbtvlab

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// TestSnapshotRoundTrip is the acceptance test of the binary snapshot
// format: for a real (study-produced) dataset, the snapshot must load to
// the exact dataset the gzip-JSON format loads to (written by the
// reference writer, as earlier versions wrote it) — reflect.DeepEqual on
// the full structure, digests byte-identical across both formats and the
// original — and Load must sniff either format from its magic bytes.
// The chaos suite re-runs this under fault injection (see
// TestChaosSnapshotRoundTrip), covering degraded datasets.
func TestSnapshotRoundTrip(t *testing.T) {
	tele := NewTelemetry(Options{})
	study := NewStudy(Options{
		Seed: 55, Scale: 0.04,
		ProbeWatch: 20 * time.Second,
		Telemetry:  tele,
	})
	ds, err := study.ExecuteRuns()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotRoundTrip(t, ds)
}

// assertSnapshotRoundTrip checks the full format-equivalence contract for
// one dataset. Shared with the chaos suite.
func assertSnapshotRoundTrip(t *testing.T, ds *store.Dataset) {
	t.Helper()
	origDigest, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}

	var jsonBuf, snapBuf bytes.Buffer
	if err := saveReferenceJSON(&jsonBuf, ds); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&snapBuf, ds, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	snapBytes := snapBuf.Bytes()

	// Snapshot writing is deterministic.
	var again bytes.Buffer
	if err := store.Save(&again, ds, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes, again.Bytes()) {
		t.Error("snapshot save is not deterministic: two saves differ")
	}

	fromJSON, err := store.Load(&jsonBuf)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	// Load must sniff the binary format from the magic bytes.
	fromSnap, err := store.Load(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}

	if !reflect.DeepEqual(fromJSON, fromSnap) {
		for i := range fromJSON.Runs {
			if i >= len(fromSnap.Runs) {
				break
			}
			a, b := fromJSON.Runs[i], fromSnap.Runs[i]
			for j := range a.Flows {
				if j < len(b.Flows) && !reflect.DeepEqual(a.Flows[j], b.Flows[j]) {
					t.Fatalf("snapshot-loaded dataset differs from json-loaded (run %d flow %d):\njson: %+v\nsnap: %+v",
						i, j, a.Flows[j], b.Flows[j])
				}
			}
		}
		t.Fatal("snapshot-loaded dataset differs from json-loaded dataset (non-flow fields)")
	}

	for label, loaded := range map[string]*store.Dataset{"json": fromJSON, "snapshot": fromSnap} {
		d, err := loaded.Digest()
		if err != nil {
			t.Fatalf("%s: digest: %v", label, err)
		}
		if d != origDigest {
			t.Errorf("%s-loaded digest %s != original digest %s", label, d, origDigest)
		}
	}
}

// TestSnapshotRoundTripEmpty covers the degenerate datasets.
func TestSnapshotRoundTripEmpty(t *testing.T) {
	assertSnapshotRoundTrip(t, &store.Dataset{})
	assertSnapshotRoundTrip(t, &store.Dataset{Runs: []*store.RunData{{Name: store.AllRuns[0]}}})
}
