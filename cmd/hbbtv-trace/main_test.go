package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// traceOptions is the suite's study: small, instrumented, parallelism
// left to each test so the summary's worker-invariance can be pinned.
func traceOptions(j int) hbbtvlab.Options {
	opts := hbbtvlab.Options{
		Seed:        5,
		Scale:       0.05,
		ProbeWatch:  20 * time.Second,
		Parallelism: j,
	}
	opts.Telemetry = hbbtvlab.NewTelemetry(opts)
	return opts
}

// measure runs the study and persists the dataset (trace included) as a
// binary snapshot, returning the file path.
func measure(t *testing.T, dir, name string, opts hbbtvlab.Options) string {
	t.Helper()
	ds, err := hbbtvlab.NewStudy(opts).Execute(context.Background(), hbbtvlab.Plan{})
	if err != nil && !hbbtvlab.DegradedOnly(err) {
		t.Fatal(err)
	}
	if ds.Trace == nil || len(ds.Trace.Spans) == 0 {
		t.Fatal("instrumented run produced no span trace")
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, ds, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHelp(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-h"}, &buf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	for _, flagName := range []string{"-chrome", "-top", "-notes"} {
		if !strings.Contains(buf.String(), flagName) {
			t.Errorf("usage lacks %s:\n%s", flagName, buf.String())
		}
	}
}

func TestRejections(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("no arguments: %v", err)
	}
	if err := run([]string{filepath.Join(t.TempDir(), "absent")}, &buf); err == nil {
		t.Error("missing file accepted")
	}

	// A dataset measured without -telemetry has no trace to summarize.
	bare := filepath.Join(t.TempDir(), "bare")
	var raw bytes.Buffer
	if err := store.Save(&raw, &store.Dataset{Runs: []*store.RunData{{Name: store.RunGeneral}}}, store.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bare, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bare}, &buf); err == nil || !strings.Contains(err.Error(), "no span trace") {
		t.Errorf("trace-less dataset: %v", err)
	}
}

// TestSummaryGolden pins the summary two ways: it is byte-identical
// across worker counts (the trace rides the virtual clock), and it
// contains every section the command promises.
func TestSummaryGolden(t *testing.T) {
	dir := t.TempDir()
	var outputs []string
	for _, j := range []int{1, 4} {
		path := measure(t, dir, fmt.Sprintf("ds-j%d", j), traceOptions(j))
		var buf bytes.Buffer
		if err := run([]string{path}, &buf); err != nil {
			t.Fatalf("-j %d summary: %v", j, err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("summary differs across worker counts:\n-j 1:\n%s\n-j 4:\n%s", outputs[0], outputs[1])
	}
	for _, section := range []string{
		"trace: ", "phase breakdown (virtual time):",
		"campaign", "run", "visit", "attempt", "probe", "tune", "ait", "flow-burst",
		"visit durations", "p50", "p99",
		"slowest", "critical path of the slowest visit",
		"visits by hour of day",
	} {
		if !strings.Contains(outputs[0], section) {
			t.Errorf("summary lacks %q:\n%s", section, outputs[0])
		}
	}
}

// TestFaultTimeline drives a degraded campaign and checks that the
// injected faults and retries surface on the annotation timeline.
func TestFaultTimeline(t *testing.T) {
	opts := traceOptions(2)
	opts.Faults = &faults.Config{Seed: 11, Rate: 0.25}
	opts.Retry.MaxAttempts = 3
	opts.Retry.Backoff = 2 * time.Second
	opts.Telemetry = hbbtvlab.NewTelemetry(opts)
	path := measure(t, t.TempDir(), "degraded", opts)
	var buf bytes.Buffer
	if err := run([]string{"-notes", "5", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fault/retry timeline") {
		t.Fatalf("degraded summary lacks the annotation timeline:\n%s", out)
	}
	if !strings.Contains(out, "and") || !strings.Contains(out, "raise -notes") {
		t.Errorf("-notes 5 should truncate the timeline:\n%s", out)
	}
}

// TestChromeExport validates the -chrome artifact: well-formed
// trace-event JSON (the format Perfetto loads), one complete event per
// span, sane timestamps.
func TestChromeExport(t *testing.T) {
	dir := t.TempDir()
	path := measure(t, dir, "ds", traceOptions(2))
	out := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-chrome", out, path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "chrome trace: ") {
		t.Errorf("summary lacks the export confirmation:\n%s", buf.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("export holds no events")
	}
	complete := 0
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("event %q has negative duration %v", ev.Name, ev.Dur)
			}
		case "i":
		default:
			t.Errorf("event %q has unexpected phase %q", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 {
			t.Errorf("event %q starts before the trace base: ts %v", ev.Name, ev.Ts)
		}
		if ev.Name == "" || ev.Pid != 1 {
			t.Errorf("malformed event: %+v", ev)
		}
	}

	// The dataset loads back with the same span count the export claims.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if complete != len(ds.Trace.Spans) {
		t.Errorf("export has %d complete events, trace has %d spans", complete, len(ds.Trace.Spans))
	}
}
