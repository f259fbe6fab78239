package store

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load and, since checkpoints share the
// snapshot container reader, to decodeCheckpoint. Neither may panic. Any
// input Load accepts must reach a fixed point after one snapshot save:
// loading the saved snapshot and saving it again yields identical bytes,
// and the digest does not change. That save must also be exactly what the
// serial reference writer writes for the accepted dataset. The seeds are
// the committed gzip-JSON fixture, both formats of two datasets (the
// gzip-JSON form from the reference writer), a checkpoint, and the inputs
// with data after the dataset that both readers reject.
func FuzzLoad(f *testing.F) {
	fixture, err := os.ReadFile(fixtureFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, ds := range []*Dataset{sampleDataset(), farFutureDataset()} {
		f.Add(referenceGzipJSON(f, ds))
		var buf bytes.Buffer
		if err := Save(&buf, ds, FormatSnapshot); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, raw := range trailingJSONInputs(f) {
		f.Add(raw)
	}
	f.Add(trailingSnapshot(f))
	var cp bytes.Buffer
	if err := WriteCheckpoint(&cp, sampleCheckpoint()); err != nil {
		f.Fatal(err)
	}
	f.Add(cp.Bytes())
	// A decomposed URL whose scheme does not survive String and Parse,
	// which no writer emits: the loader must reject it, or the re-save
	// would store the URL differently.
	var snap bytes.Buffer
	if err := Save(&snap, sampleDataset(), FormatSnapshot); err != nil {
		f.Fatal(err)
	}
	upper := bytes.Replace(snap.Bytes(), []byte("\x04http"), []byte("\x04HTTP"), 1)
	if bytes.Equal(upper, snap.Bytes()) {
		f.Fatal("no scheme entry in the string table")
	}
	if _, err := Load(bytes.NewReader(upper)); err == nil {
		f.Fatal("a decomposed HTTP scheme loads")
	}
	f.Add(upper)

	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = decodeCheckpoint(raw)
		ds, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		first := snapshotOf(t, ds)
		if !bytes.Equal(first, serialSnapshot(t, ds)) {
			t.Fatal("the snapshot of an accepted input differs from the serial writer's")
		}
		again, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("the snapshot of an accepted input does not load: %v", err)
		}
		if second := snapshotOf(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-saved snapshot differs from the first save (%d vs %d bytes)", len(second), len(first))
		}
		if d1, d2 := mustDigest(t, ds), mustDigest(t, again); d1 != d2 {
			t.Fatalf("digest changed across the reload: %s != %s", d2, d1)
		}
	})
}

func snapshotOf(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, ds, FormatSnapshot); err != nil {
		t.Fatalf("save an accepted input: %v", err)
	}
	return buf.Bytes()
}
