package hbbtvlab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// These tests hold Dataset.Digest, the hash of the runs' binary snapshot,
// to the identity the digest used to have: the hash of the runs'
// uncompressed gzip-JSON encoding (jsonMirrorDigest, over the reference
// writer in json_reference_test.go). The two digests differ in value, so
// each test collects datasets together with the class they belong to and
// asserts that both digests sort them into exactly the same classes, and
// that those classes are the expected ones: a dataset's worker count,
// fleet topology and storage format never change its identity, while
// different campaigns never share one.

type digestEntry struct {
	class, label string
	ds           *store.Dataset
}

// checkDigestClasses fails the test unless the new and the former digest
// induce the same equality classes on entries, and those classes are
// exactly the entries' expected classes.
func checkDigestClasses(t *testing.T, entries []digestEntry) {
	t.Helper()
	classOf := map[string]string{} // new digest -> expected class
	oldOf := map[string]string{}   // new digest -> old digest
	newOf := map[string]string{}   // old digest -> new digest
	for _, e := range entries {
		d, err := e.ds.Digest()
		if err != nil {
			t.Fatalf("%s: %v", e.label, err)
		}
		old := jsonMirrorDigest(t, e.ds)
		if c, ok := classOf[d]; ok && c != e.class {
			t.Errorf("%s (class %s) shares digest %s with class %s", e.label, e.class, d, c)
		}
		classOf[d] = e.class
		if o, ok := oldOf[d]; ok && o != old {
			t.Errorf("%s: equal new digests, different old digests", e.label)
		}
		oldOf[d] = old
		if n, ok := newOf[old]; ok && n != d {
			t.Errorf("%s: equal old digests, different new digests", e.label)
		}
		newOf[old] = d
	}
	classes := map[string]bool{}
	for _, e := range entries {
		classes[e.class] = true
	}
	if len(classOf) != len(classes) {
		t.Errorf("%d distinct digests for %d classes", len(classOf), len(classes))
	}
}

func digestOptions(seed int64, j int) Options {
	return Options{Seed: seed, Scale: 0.04, ProbeWatch: 20 * time.Second, Parallelism: j, Shards: 4}
}

func measureForDigest(t *testing.T, label string, opts Options) *store.Dataset {
	t.Helper()
	study, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ds, err := study.ExecuteRuns()
	if err != nil && !DegradedOnly(err) {
		t.Fatalf("%s: %v", label, err)
	}
	if ds == nil {
		t.Fatalf("%s: no dataset", label)
	}
	return ds
}

// TestDigestEquivalence: over 3 seeds × j=1/2/4/8 on clean (fault-free)
// campaigns, the digest is worker-independent, distinct per seed, and
// classes the datasets as the former digest does.
func TestDigestEquivalence(t *testing.T) {
	var entries []digestEntry
	for _, seed := range []int64{1, 321, 77} {
		for _, j := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("seed=%d/j=%d", seed, j)
			entries = append(entries, digestEntry{fmt.Sprintf("seed=%d", seed), label, measureForDigest(t, label, digestOptions(seed, j))})
		}
	}
	checkDigestClasses(t, entries)
}

// TestDigestEquivalenceDegraded repeats the proof on fault-injected
// campaigns, which exercise the encoder paths a clean study never hits
// (failed-channel outcomes, recovered panics, truncated bodies, channels
// with zero flows); the clean campaign of the same seed is a class of its
// own.
func TestDigestEquivalenceDegraded(t *testing.T) {
	entries := []digestEntry{{"clean", "clean/j=1", measureForDigest(t, "clean/j=1", digestOptions(321, 1))}}
	for _, j := range []int{1, 2, 4, 8} {
		opts := digestOptions(321, j)
		opts.Faults = &faults.Config{Seed: 11, Rate: 0.25}
		opts.Retry = core.RetryPolicy{
			MaxAttempts:     2,
			Backoff:         2 * time.Second,
			VisitDeadline:   5 * time.Minute,
			QuarantineAfter: 2,
		}
		label := fmt.Sprintf("faults/j=%d", j)
		entries = append(entries, digestEntry{"faults", label, measureForDigest(t, label, opts)})
	}
	checkDigestClasses(t, entries)
}

// TestDigestEquivalenceEmpty covers the degenerate encodings: no runs, and
// one run without channels or flows. Each is its own class, and each
// digest is the hash of the snapshot Save writes for the runs.
func TestDigestEquivalenceEmpty(t *testing.T) {
	entries := []digestEntry{
		{"empty", "empty", &store.Dataset{}},
		{"one-empty-run", "one-empty-run", &store.Dataset{Runs: []*store.RunData{{Name: store.AllRuns[0]}}}},
	}
	checkDigestClasses(t, entries)
	for _, e := range entries {
		var buf bytes.Buffer
		if err := store.Save(&buf, e.ds, store.FormatSnapshot); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		d, err := e.ds.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if want := hex.EncodeToString(sum[:]); d != want {
			t.Errorf("%s: digest %s, sha256 of the snapshot %s", e.label, d, want)
		}
	}
}

// TestDigestTransition covers the identities the equivalence tests do not:
// a 2-way fleet, each collector on a fresh study, merges to the
// single-process campaign with the same shard count, and a dataset written
// as gzip-JSON (by the reference writer), loaded, saved as a snapshot and
// loaded again keeps its identity.
func TestDigestTransition(t *testing.T) {
	fleet := digestOptions(321, 2)
	fleet.Shards = 2
	entries := []digestEntry{{"fleet", "fleet/single", measureForDigest(t, "fleet/single", fleet)}}
	var shards []*store.Dataset
	for i := 0; i < 2; i++ {
		study, err := NewStudyChecked(fleet)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := study.ExecuteShard(i, 2)
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		shards = append(shards, ds)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	entries = append(entries, digestEntry{"fleet", "fleet/merged", merged})

	reloaded := measureForDigest(t, "seed=1/j=1", digestOptions(1, 1))
	entries = append(entries, digestEntry{"seed=1", "seed=1/j=1", reloaded})
	for _, save := range []func(io.Writer, *store.Dataset) error{saveReferenceJSON, saveSnapshot} {
		var buf bytes.Buffer
		if err := save(&buf, reloaded); err != nil {
			t.Fatal(err)
		}
		if reloaded, err = store.Load(&buf); err != nil {
			t.Fatal(err)
		}
	}
	entries = append(entries, digestEntry{"seed=1", "seed=1/json→snapshot", reloaded})
	checkDigestClasses(t, entries)
}
