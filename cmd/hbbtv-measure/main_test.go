package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-j", "-1"}); err == nil {
		t.Error("negative -j accepted")
	}
	if err := run([]string{"-shards", "4"}); err == nil {
		t.Error("-shards without -j accepted")
	}
	if err := run([]string{"-retries", "-1"}); err == nil {
		t.Error("negative -retries accepted")
	}
	if err := run([]string{"-fault-seed", "7"}); err == nil {
		t.Error("-fault-seed without -fault-rate accepted")
	}
	if err := run([]string{"-fault-rate", "1.5"}); err == nil {
		t.Error("out-of-range -fault-rate accepted")
	}
}

// TestTelemetryEndToEnd drives the CLI the way the acceptance criteria
// describe: a small sharded study with -telemetry, a JSON-line sink and
// -snapshot; the snapshot must load carrying the final telemetry snapshot
// and the span trace, and the sink must have received valid snapshot
// lines.
func TestTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	snapped := filepath.Join(dir, "ds.snap")
	lines := filepath.Join(dir, "telemetry.ndjson")

	err := run([]string{
		"-seed", "321", "-scale", "0.02", "-j", "2",
		"-telemetry", "-telemetry-json", lines, "-snapshot", snapped,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snapped)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := store.Load(f)
	if err != nil {
		t.Fatalf("load -snapshot output: %v", err)
	}
	if ds.Telemetry == nil {
		t.Fatal("saved dataset has no telemetry snapshot")
	}
	if ds.Telemetry.Counters["core_channels_visited"] == 0 {
		t.Error("snapshot counts no channel visits")
	}
	if ds.Telemetry.Counters["proxy_flows_recorded"] == 0 {
		t.Error("snapshot counts no flows")
	}
	if ds.Trace == nil || len(ds.Trace.Spans) == 0 {
		t.Fatal("saved dataset has no span trace")
	}

	lf, err := os.Open(lines)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	sc := bufio.NewScanner(lf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0
	var last telemetry.Snapshot
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("sink line %d invalid JSON: %v", n, err)
		}
		last = snap
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// At minimum the final snapshot written by finish().
	if n < 1 {
		t.Fatalf("sink received %d snapshot lines, want >= 1", n)
	}
	// The last line is the campaign-end snapshot finish() flushes: its
	// counters must equal the final state embedded in the dataset, so a
	// consumer tailing the stream never misses the end of the campaign.
	if !reflect.DeepEqual(last.Counters, ds.Telemetry.Counters) {
		t.Fatalf("final sink snapshot differs from the embedded one:\nsink %+v\nsaved %+v",
			last.Counters, ds.Telemetry.Counters)
	}
}

func TestPanicsError(t *testing.T) {
	clean := &store.Dataset{Runs: []*store.RunData{{Name: store.RunGeneral}}}
	if err := panicsError(clean, false); err != nil {
		t.Errorf("clean run reported error: %v", err)
	}
	panicked := &store.Dataset{Runs: []*store.RunData{
		{Name: store.RunGeneral, RecoveredPanics: 2},
		{Name: store.RunRed, RecoveredPanics: 1},
	}}
	err := panicsError(panicked, false)
	if err == nil {
		t.Fatal("panic-bearing run exited clean")
	}
	if !strings.Contains(err.Error(), "3 recovered panic") {
		t.Errorf("error does not count panics: %v", err)
	}
	if err := panicsError(panicked, true); err != nil {
		t.Errorf("-allow-panics still errored: %v", err)
	}
}

func TestFailuresError(t *testing.T) {
	degraded := &store.Dataset{Runs: []*store.RunData{
		{Name: store.RunGeneral, Outcomes: []store.ChannelOutcome{
			{Channel: "a", Status: store.OutcomeOK, Attempts: 1},
			{Channel: "b", Status: store.OutcomeFailed, Attempts: 3},
			{Channel: "c", Status: store.OutcomeSkipped},
		}},
		{Name: store.RunRed, Outcomes: []store.ChannelOutcome{
			{Channel: "b", Status: store.OutcomeQuarantined},
		}},
	}}
	if err := failuresError(degraded, -1); err != nil {
		t.Errorf("no budget (-1) still errored: %v", err)
	}
	if err := failuresError(degraded, 2); err != nil {
		t.Errorf("within budget still errored: %v", err)
	}
	err := failuresError(degraded, 1)
	if err == nil {
		t.Fatal("budget overrun exited clean")
	}
	if !strings.Contains(err.Error(), "2 channel visit(s)") {
		t.Errorf("error does not count failures: %v", err)
	}
	clean := &store.Dataset{Runs: []*store.RunData{{Name: store.RunGeneral}}}
	if err := failuresError(clean, 0); err != nil {
		t.Errorf("clean run with zero budget errored: %v", err)
	}
}
