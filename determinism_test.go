package hbbtvlab

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// runSmallStudy executes a small study end-to-end and returns its report.
func runSmallStudy(t *testing.T, seed int64) (*Results, string) {
	t.Helper()
	study := NewStudy(Options{Seed: seed, Scale: 0.04, ProbeWatch: 20 * time.Second})
	ds, err := study.Execute(context.Background(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	res := analyzeAll(t, ds)
	var buf bytes.Buffer
	if err := RenderAll(&buf, res); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestStudyDeterministic: equal seeds must reproduce the entire study —
// every flow, every analysis output, byte-identical reports.
func TestStudyDeterministic(t *testing.T) {
	res1, report1 := runSmallStudy(t, 321)
	res2, report2 := runSmallStudy(t, 321)
	if report1 != report2 {
		t.Fatalf("reports differ for equal seeds:\n--- first\n%s\n--- second\n%s", report1, report2)
	}
	if !reflect.DeepEqual(res1.TableI, res2.TableI) {
		t.Error("Table I differs")
	}
	if !reflect.DeepEqual(res1.Fig5.PartyChannels, res2.Fig5.PartyChannels) {
		t.Error("Figure 5 differs")
	}
}

// TestTableIGolden pins the rendered Table I for the default small-study
// seed to a checked-in golden file. Unlike TestStudyDeterministic (which
// only checks self-consistency within one binary), this catches drift
// across commits: any change to the world generator, the measurement
// procedure, or the analysis that alters the headline numbers fails here
// until the golden is deliberately regenerated with -update.
func TestTableIGolden(t *testing.T) {
	ds, _ := tableIWorld(t)
	res := analyzeAll(t, ds)
	var buf bytes.Buffer
	if err := RenderTableI(&buf, res.TableI); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "table1_seed321.golden")
	if *updateGolden {
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
		t.Errorf("Table I drifted from golden %s\n--- want\n%s--- got\n%s\n(run go test -run TestTableIGolden -update to accept)",
			golden, want, got)
	}
}

// TestAnalyzeParallelDeterminism: AnalyzeContext must produce
// byte-identical Results (under encoding/json) for every Parallelism
// value — the determinism contract of the section engine. Results.Stats
// is covered explicitly: its Kruskal-Wallis groupings are built from
// maps, and an unsorted iteration there once made H/p values drift.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	ds, _ := tableIWorld(t)
	encode := func(parallelism int) []byte {
		t.Helper()
		res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := encode(1)
	for _, n := range []int{2, 4} {
		if got := encode(n); !bytes.Equal(serial, got) {
			t.Fatalf("Results differ between Parallelism=1 and Parallelism=%d", n)
		}
	}
	// Repeated serial runs agree too (guards the in-process map-order
	// fixes independently of the worker pool).
	var a, b Results
	if err := json.Unmarshal(serial, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(encode(1), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("Results.Stats not reproducible:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Stats.ChannelTrackers.Groups == 0 && len(ds.ChannelNames()) > 1 {
		t.Error("Stats.ChannelTrackers empty — statFindings did not run")
	}
}

// TestStudySeedSensitivity: different seeds produce different worlds.
func TestStudySeedSensitivity(t *testing.T) {
	_, report1 := runSmallStudy(t, 1)
	_, report2 := runSmallStudy(t, 2)
	if report1 == report2 {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestSaveLoadAnalyzeEquivalence: analyzing a persisted-and-reloaded
// dataset must yield the same results as analyzing the in-memory one.
func TestSaveLoadAnalyzeEquivalence(t *testing.T) {
	study := NewStudy(Options{Seed: 55, Scale: 0.04, ProbeWatch: 20 * time.Second})
	ds, err := study.Execute(context.Background(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	direct := analyzeAll(t, ds)

	var buf bytes.Buffer
	if err := saveReferenceJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := analyzeAll(t, loaded)

	if !reflect.DeepEqual(direct.TableI, reloaded.TableI) {
		t.Errorf("Table I differs after save/load:\n%+v\n%+v", direct.TableI, reloaded.TableI)
	}
	if !reflect.DeepEqual(direct.TableIII, reloaded.TableIII) {
		t.Error("Table III differs after save/load")
	}
	if !reflect.DeepEqual(direct.Consent.TableIV, reloaded.Consent.TableIV) {
		t.Error("Table IV differs after save/load")
	}
	if direct.Policies.Corpus.Occurrences != reloaded.Policies.Corpus.Occurrences ||
		len(direct.Policies.Corpus.Unique) != len(reloaded.Policies.Corpus.Unique) {
		t.Error("policy corpus differs after save/load")
	}
	if !reflect.DeepEqual(direct.Fig8, reloaded.Fig8) {
		t.Errorf("Figure 8 differs after save/load:\n%+v\n%+v", direct.Fig8, reloaded.Fig8)
	}
}
