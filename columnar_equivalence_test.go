package hbbtvlab

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

// This file is the differential proof of the columnar index at study
// scale. TestColumnarIndexEquivalence compares store.BuildIndex, at several
// Parallelism values, with the row-by-row fold in reference_test.go,
// aggregate by aggregate and row by row. The analysis suites compare the
// whole engine with testdata/analyze_equivalence.golden: one SHA-256 per
// Results section plus one of the whole JSON encoding, per seed, recorded
// from the row-oriented reference engine this package had before the
// columnar index became the only representation. The suites run under
// -race via `make check`, so they also exercise the chunk pool for data
// races at each worker count.

// equivalenceSeeds are the study seeds the differential suite covers.
// Three distinct worlds: the golden-file seed plus two arbitrary others,
// so the equivalence is not an artifact of one generated dataset.
var equivalenceSeeds = []int64{321, 7, 9001}

// equivalenceParallelism are the worker counts the columnar engine is
// swept over. The chunk pool recruits helpers opportunistically, so the
// higher counts exercise chunk claiming even on small machines.
var equivalenceParallelism = []int{1, 2, 4, 8}

// equivalenceGolden pins the analysis Results of the equivalence seeds.
// Regenerate deliberately with go test -run TestColumnarAnalyzeEquivalence
// -update, which records the Parallelism 1 results.
var equivalenceGolden = filepath.Join("testdata", "analyze_equivalence.golden")

// equivalenceDataset returns the small study world for one seed, built
// once per test binary; callers must not modify it.
func equivalenceDataset(t *testing.T, seed int64) *store.Dataset {
	t.Helper()
	ds, _ := sharedCampaign(t, fmt.Sprintf("equivalence-%d", seed), func(t *testing.T) *store.Dataset {
		ds, err := NewStudy(Options{Seed: seed, Scale: 0.04, ProbeWatch: 20 * time.Second}).Execute(context.Background(), Plan{})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	})
	return ds
}

// sectionFields names every Results field owned by a section analyzer,
// so a mismatch is reported per section instead of as one opaque blob.
var sectionFields = []string{
	"TableI", "TableII", "TableIII",
	"Fig5", "Fig6", "Fig7", "Fig8",
	"FirstParties", "Leaks", "Cookies", "Children", "Consent",
	"Policies", "Stats", "SmartTVLists", "DerivedRules", "Extension",
}

// resultHashLines renders one "seed field sha256" line per sectionFields
// entry, hashing the field's JSON encoding, plus a "seed json sha256" line
// for the whole Results as a backstop for any field the list misses.
func resultHashLines(t *testing.T, seed int64, res *Results) []string {
	t.Helper()
	v := reflect.ValueOf(*res)
	var lines []string
	for _, name := range sectionFields {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("Results has no field %q — update sectionFields", name)
		}
		b, err := json.Marshal(f.Interface())
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%d %s %x", seed, name, sha256.Sum256(b)))
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(lines, fmt.Sprintf("%d json %x", seed, sha256.Sum256(b)))
}

// readEquivalenceGolden returns the golden's lines as a set.
func readEquivalenceGolden(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(equivalenceGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		want[line] = true
	}
	return want
}

// checkGolden reports every hash line missing from the golden set. Only
// the fields in owned are checked; nil checks them all.
func checkGolden(t *testing.T, label string, want map[string]bool, lines []string, owned map[string]bool) {
	t.Helper()
	for _, line := range lines {
		f := strings.Fields(line) // seed, field, hash
		if owned != nil && !owned[f[1]] {
			continue
		}
		if !want[line] {
			t.Errorf("%s: seed %s %s differs from %s", label, f[0], f[1], equivalenceGolden)
		}
	}
}

// analyzeAt runs the engine over ds with the given worker count and
// section selection (nil runs every section).
func analyzeAt(t *testing.T, ds *store.Dataset, parallelism int, sections []Section) *Results {
	t.Helper()
	res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{Parallelism: parallelism, Sections: sections})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestColumnarAnalyzeEquivalence is the headline differential test: for
// three seeds, the engine at Parallelism 1/2/4/8 must reproduce every
// section of the golden results byte for byte.
func TestColumnarAnalyzeEquivalence(t *testing.T) {
	var want map[string]bool
	if !*updateGolden {
		want = readEquivalenceGolden(t)
	}
	var golden []string
	for _, seed := range equivalenceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ds := equivalenceDataset(t, seed)
			for _, par := range equivalenceParallelism {
				lines := resultHashLines(t, seed, analyzeAt(t, ds, par, nil))
				if !*updateGolden {
					checkGolden(t, fmt.Sprintf("j=%d", par), want, lines, nil)
				} else if par == 1 {
					golden = append(golden, lines...)
				}
			}
		})
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(equivalenceGolden, []byte(strings.Join(golden, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", equivalenceGolden)
	}
}

// TestColumnarIndexEquivalence compares store.BuildIndex with the
// row-by-row reference fold: every exported aggregate (FirstParty,
// Channels, Window, Runs, SetEvents, PerChannelTracking) and every row's
// flow, run, URL, host, party and kind must agree, for serial and parallel
// builds.
func TestColumnarIndexEquivalence(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ds := equivalenceDataset(t, seed)
			cls := tracking.NewClassifier()
			ref := buildReferenceIndex(ds, cls.IndexConfig())
			for _, par := range equivalenceParallelism {
				cfg := cls.IndexConfig()
				cfg.Parallelism = par
				ix, err := store.BuildIndex(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("j=%d", par)
				if !reflect.DeepEqual(ref.FirstParty, ix.FirstParty) {
					t.Errorf("%s: FirstParty differs", label)
				}
				if !reflect.DeepEqual(ref.Channels, ix.Channels) {
					t.Errorf("%s: Channels differ", label)
				}
				if !reflect.DeepEqual(ref.Window, ix.Window) {
					t.Errorf("%s: Window differs", label)
				}
				if !reflect.DeepEqual(ref.Runs, ix.Runs) {
					t.Errorf("%s: per-run aggregates differ", label)
				}
				if !reflect.DeepEqual(ref.SetEvents, ix.SetEvents) {
					t.Errorf("%s: SetEvents differ", label)
				}
				if !reflect.DeepEqual(ref.PerChannelTracking, ix.PerChannelTracking) {
					t.Errorf("%s: PerChannelTracking differs", label)
				}
				cols := ix.Columns()
				if ix.FlowCount() != len(ref.Flows) {
					t.Fatalf("%s: FlowCount %d, reference %d", label, ix.FlowCount(), len(ref.Flows))
				}
				for i := range ref.Flows {
					switch {
					case cols.Flows[i] != ref.Flows[i]:
						t.Fatalf("%s: row %d holds another flow", label, i)
					case cols.RunName(i) != ref.Run[i]:
						t.Fatalf("%s: row %d run %q, reference %q", label, i, cols.RunName(i), ref.Run[i])
					case cols.Kind[i] != ref.Kind[i]:
						t.Fatalf("%s: row %d (%s) kind %v, reference %v", label, i, ref.URL[i], cols.Kind[i], ref.Kind[i])
					case cols.URL(i) != ref.URL[i]:
						t.Fatalf("%s: row %d URL %q, reference %q", label, i, cols.URL(i), ref.URL[i])
					case cols.Party(i) != ref.Party[i]:
						t.Fatalf("%s: row %d (%s) party %q, reference %q", label, i, ref.URL[i], cols.Party(i), ref.Party[i])
					case cols.Host(i) != ref.Host[i]:
						t.Fatalf("%s: row %d host %q, reference %q", label, i, cols.Host(i), ref.Host[i])
					}
				}
			}
		})
	}
}

// TestColumnarSectionSelectionEquivalence runs each row-scanning section
// alone at Parallelism 8: section selection must not perturb the result
// (a section running alone sees the whole chunk pool as helpers — the
// maximally parallel intra-section configuration). The fields the section
// owns, and the always-set FirstParties, must match the golden; every
// other section field must stay zero.
func TestColumnarSectionSelectionEquivalence(t *testing.T) {
	seed := equivalenceSeeds[0]
	ds := equivalenceDataset(t, seed)
	want := readEquivalenceGolden(t)
	for sec, fields := range map[Section][]string{
		SectionPolicies:  {"Policies"},
		SectionFig8:      {"Fig8"},
		SectionCookies:   {"Cookies"},
		SectionExtension: {"DerivedRules", "Extension"},
		SectionLeaks:     {"Leaks"},
	} {
		owns := map[string]bool{"FirstParties": true}
		for _, f := range fields {
			owns[f] = true
		}
		res := analyzeAt(t, ds, 8, []Section{sec})
		label := fmt.Sprintf("section %s alone", sec)
		checkGolden(t, label, want, resultHashLines(t, seed, res), owns)
		v := reflect.ValueOf(*res)
		for _, name := range sectionFields {
			if !owns[name] && !v.FieldByName(name).IsZero() {
				t.Errorf("%s: set field %s it does not own", label, name)
			}
		}
	}
}
