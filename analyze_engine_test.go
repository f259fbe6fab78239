package hbbtvlab

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// smallDataset measures a small world once and caches nothing — callers
// share it via the package-level fixture in hbbtvlab_test.go when they can.
func smallDataset(t *testing.T, seed int64) *store.Dataset {
	t.Helper()
	study := NewStudy(Options{Seed: seed, Scale: 0.04, ProbeWatch: 20 * time.Second})
	ds, err := study.Execute(context.Background(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAnalyzeContextNilDataset(t *testing.T) {
	if _, err := AnalyzeContext(context.Background(), nil, AnalyzeOptions{}); err == nil {
		t.Fatal("expected error for nil dataset")
	}
}

func TestAnalyzeContextUnknownSection(t *testing.T) {
	ds := smallDataset(t, 7)
	_, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{
		Sections: []Section{"tableXVII"},
	})
	if err == nil || !strings.Contains(err.Error(), "tableXVII") {
		t.Fatalf("expected unknown-section error naming the section, got %v", err)
	}
}

// TestAnalyzeContextSectionSelection verifies — via telemetry counters —
// that only the requested analyzers execute, and that their Results
// fields are the only ones populated.
func TestAnalyzeContextSectionSelection(t *testing.T) {
	ds := smallDataset(t, 7)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{
		Sections:  []Section{SectionTableI, SectionFig6},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["analyze.section.table1.runs"]; got != 1 {
		t.Errorf("table1 runs = %d, want 1", got)
	}
	if got := snap.Counters["analyze.section.fig6.runs"]; got != 1 {
		t.Errorf("fig6 runs = %d, want 1", got)
	}
	for _, s := range AllSections() {
		if s == SectionTableI || s == SectionFig6 {
			continue
		}
		if got := snap.Counters["analyze.section."+string(s)+".runs"]; got != 0 {
			t.Errorf("unselected section %s ran %d times", s, got)
		}
	}
	if got := snap.Counters["analyze.sections.completed"]; got != 2 {
		t.Errorf("sections completed = %d, want 2", got)
	}
	if got := snap.Counters["analyze.index.builds"]; got != 1 {
		t.Errorf("index builds = %d, want 1", got)
	}
	// Selected sections populated…
	if len(res.TableI) == 0 {
		t.Error("TableI empty despite selection")
	}
	if len(res.Fig6.PerChannel) == 0 {
		t.Error("Fig6 empty despite selection")
	}
	// …unselected ones untouched; FirstParties always set.
	if res.TableII != nil || res.TableIII != nil || res.DerivedRules != nil {
		t.Error("unselected sections populated their fields")
	}
	if len(res.FirstParties) == 0 {
		t.Error("FirstParties not populated")
	}
}

// TestAnalyzeContextDuplicateSections: duplicates collapse to one run.
func TestAnalyzeContextDuplicateSections(t *testing.T) {
	ds := smallDataset(t, 7)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	if _, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{
		Sections:  []Section{SectionTableI, SectionTableI},
		Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["analyze.section.table1.runs"]; got != 1 {
		t.Errorf("table1 runs = %d, want 1", got)
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	ds := smallDataset(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, ds, AnalyzeOptions{Parallelism: 4}); err == nil {
		t.Fatal("expected context error from pre-cancelled analysis")
	}
}

func TestAllSectionsCoverRegistry(t *testing.T) {
	all := AllSections()
	if len(all) != 14 {
		t.Fatalf("AllSections() returned %d sections, want 14", len(all))
	}
	seen := make(map[Section]bool)
	for _, s := range all {
		if seen[s] {
			t.Errorf("duplicate section %q", s)
		}
		seen[s] = true
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		{Seed: 3, Scale: 0.5, Parallelism: 4, Shards: 8},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []Options{
		{Parallelism: -1},
		{Shards: -2},
		{Scale: -0.5},
		{Scale: nan()},
		{Scale: inf()},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestNewStudyCheckedRejectsInvalidOptions(t *testing.T) {
	if _, err := NewStudyChecked(Options{Parallelism: -3}); err == nil {
		t.Fatal("expected error for negative parallelism")
	}
}

func TestNewStudyPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Parallelism") {
			t.Fatalf("panic message %v does not name the bad field", r)
		}
	}()
	NewStudy(Options{Parallelism: -1})
}
