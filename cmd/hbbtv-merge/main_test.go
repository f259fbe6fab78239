package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// mergeOptions is the CLI suite's study: small but non-trivial, sharded
// engine locked to the fleet width under test.
func mergeOptions(n int) hbbtvlab.Options {
	return hbbtvlab.Options{
		Seed:        9,
		Scale:       0.05,
		ProbeWatch:  20 * time.Second,
		Parallelism: 2,
		Shards:      n,
	}
}

// writeShards measures every shard of an n-way fleet in-process and
// persists each to dir as a snapshot, returning the file paths.
func writeShards(t *testing.T, dir string, opts hbbtvlab.Options, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := hbbtvlab.NewStudyChecked(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.ExecuteShard(i, n)
		if err != nil && !hbbtvlab.DegradedOnly(err) {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		writeDataset(t, paths[i], ds)
	}
	return paths
}

func writeDataset(t *testing.T, path string, ds *store.Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf, ds, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHelp pins the command's usage surface: -h must list every flag the
// doc comment promises.
func TestHelp(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-h"}, &buf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	for _, flagName := range []string{"-snapshot", "-verify", "-q"} {
		if !strings.Contains(buf.String(), flagName) {
			t.Errorf("usage lacks %s:\n%s", flagName, buf.String())
		}
	}
}

func TestNoInputs(t *testing.T) {
	var buf bytes.Buffer
	err := run(nil, &buf)
	if err == nil || !strings.Contains(err.Error(), "no shard datasets given") {
		t.Errorf("empty invocation: %v", err)
	}
}

// TestRejections pins the error text for every way a merge input can be
// wrong: unreadable file, dataset without a manifest, incomplete fleet,
// and shards from different studies.
func TestRejections(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer

	if err := run([]string{filepath.Join(dir, "absent")}, &buf); err == nil {
		t.Error("missing file accepted")
	}

	plain := filepath.Join(dir, "plain")
	writeDataset(t, plain, &store.Dataset{Runs: []*store.RunData{{Name: store.RunGeneral}}})
	if err := run([]string{plain}, &buf); err == nil || !strings.Contains(err.Error(), "no shard manifest") {
		t.Errorf("manifest-less dataset: %v", err)
	}

	opts := mergeOptions(2)
	opts.Scale = 0.02 // the rejection paths never merge; keep them cheap
	shards := writeShards(t, dir, opts, 2)
	if err := run([]string{shards[0]}, &buf); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Errorf("incomplete fleet: %v", err)
	}

	other := opts
	other.Seed = 10
	otherDir := filepath.Join(dir, "other")
	if err := os.MkdirAll(otherDir, 0o755); err != nil {
		t.Fatal(err)
	}
	otherShards := writeShards(t, otherDir, other, 2)
	if err := run([]string{shards[0], otherShards[1]}, &buf); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch: %v", err)
	}
}

// TestMergeVerify is the command's end-to-end happy path: in-process
// shard datasets on disk, merged and verified against the single-process
// run, merged output written and loadable. The chaos variant proves the
// CLI path holds for fault-degraded campaigns too.
func TestMergeVerify(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*hbbtvlab.Options)
	}{
		{name: "reliable"},
		{name: "chaos", mutate: func(o *hbbtvlab.Options) {
			o.Faults = &faults.Config{Rate: 0.25}
			o.Retry = core.RetryPolicy{MaxAttempts: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const n = 2
			opts := mergeOptions(n)
			if tc.mutate != nil {
				tc.mutate(&opts)
			}

			ref, err := hbbtvlab.NewStudyChecked(opts)
			if err != nil {
				t.Fatal(err)
			}
			refDS, err := ref.ExecuteRuns()
			if err != nil && !hbbtvlab.DegradedOnly(err) {
				t.Fatal(err)
			}
			refPath := filepath.Join(dir, "single")
			writeDataset(t, refPath, refDS)

			shards := writeShards(t, dir, opts, n)
			mergedPath := filepath.Join(dir, "merged")
			var buf bytes.Buffer
			args := append([]string{"-verify", refPath, "-snapshot", mergedPath}, shards...)
			if err := run(args, &buf); err != nil {
				t.Fatalf("merge failed: %v\n%s", err, buf.String())
			}
			out := buf.String()
			for _, want := range []string{
				fmt.Sprintf("merged %d shard(s)", n),
				"dedup:",
				"digest ",
				"verified: digest matches " + refPath,
				"snapshot written to " + mergedPath,
			} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}

			f, err := os.Open(mergedPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			merged, err := store.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Shard != nil {
				t.Error("merged dataset still carries a shard manifest")
			}
			want, err := refDS.Digest()
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("merged digest %s != reference %s", got, want)
			}
		})
	}
}

// TestVerifyMismatch pins the failure mode -verify exists for: a
// reference from a different study must fail the gate, digests printed.
func TestVerifyMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := mergeOptions(2)
	opts.Scale = 0.02
	shards := writeShards(t, dir, opts, 2)

	other := opts
	other.Seed = 10
	ref, err := hbbtvlab.NewStudyChecked(other)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := ref.ExecuteRuns()
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "wrong-ref")
	writeDataset(t, refPath, refDS)

	var buf bytes.Buffer
	err = run(append([]string{"-q", "-verify", refPath}, shards...), &buf)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("wrong reference accepted: %v", err)
	}
}
