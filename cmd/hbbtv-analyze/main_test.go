package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRunGoldenTableI pins the CLI's table1 report for a fixed small-scale
// study to a checked-in golden file — the end-to-end check that flag
// parsing, section selection, analysis, and rendering stay stable.
func TestRunGoldenTableI(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-seed", "321", "-scale", "0.04", "-probewatch", "20s", "-t", "table1", "-j", "4"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "table1_seed321.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CLI report drifted from golden %s\n--- want\n%s--- got\n%s\n(run go test -update to accept)",
			golden, want, got)
	}
}

func TestRunUnknownTarget(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-t", "tableX"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "tableX") {
		t.Fatalf("expected unknown-target error, got %v", err)
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "-1"}, &buf); err == nil {
		t.Fatal("expected option-validation error for negative scale")
	}
}

// TestRunInRejectsCampaignFlags: -seed, -scale and -probewatch describe a
// campaign to measure, and -in measures none, so each is an error with -in
// instead of being ignored.
func TestRunInRejectsCampaignFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(f, &store.Dataset{}, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-t", "table1"}, &buf); err != nil {
		t.Fatalf("-in alone: %v", err)
	}
	for _, flagArgs := range [][]string{{"-seed", "999"}, {"-scale", "3"}, {"-probewatch", "5s"}} {
		args := append([]string{"-in", path, "-t", "table1"}, flagArgs...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]) || !strings.Contains(err.Error(), "-in") {
			t.Errorf("%v: error %v, want one naming %s and -in", args, err, flagArgs[0])
		}
	}
}
