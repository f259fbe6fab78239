package hbbtvlab

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

// cancelAfterErrs is a context that reports cancellation starting with the
// nth Err() call. The chunk pool polls Err() between chunks, so this
// cancels a section scan mid-flight at a reproducible point — no timers,
// no goroutine races.
type cancelAfterErrs struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *cancelAfterErrs) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return c.Context.Err()
}

// columnarEnv builds a direct section-analyzer environment over the
// columnar index, with the given context and pool capacity.
func columnarEnv(t *testing.T, ds *store.Dataset, ctx context.Context, slots int) *analysisEnv {
	t.Helper()
	ix, err := store.BuildIndex(context.Background(), ds, tracking.NewClassifier().IndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := &chunkPool{slots: make(chan struct{}, slots)}
	return &analysisEnv{ds: ds, ix: ix, ctx: ctx, pool: pool}
}

// TestAnalyzeContextEmptySectionSelection: an empty (but non-nil) section
// slice means "everything", exactly like nil — it must not select zero
// sections.
func TestAnalyzeContextEmptySectionSelection(t *testing.T) {
	ds := smallDataset(t, 7)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{
		Sections:  []Section{},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["analyze.sections.completed"]; got != uint64(len(AllSections())) {
		t.Errorf("empty selection completed %d sections, want all %d", got, len(AllSections()))
	}
	if len(res.TableI) == 0 || len(res.TableIII) == 0 {
		t.Error("empty selection left sections unpopulated")
	}
}

// TestMapChunksCancelMidScan: a cancellation raised by a chunk callback
// stops the scan — mapChunks returns false and leaves later chunks unrun.
func TestMapChunksCancelMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := &chunkPool{slots: make(chan struct{}, 1)}
	const nChunks = 64
	var ran atomic.Int64
	ok := pool.mapChunks(ctx, nChunks, func(chunk int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if ok {
		t.Fatal("mapChunks reported full completion despite mid-scan cancel")
	}
	if n := ran.Load(); n >= nChunks {
		t.Fatalf("all %d chunks ran after cancellation", n)
	}
}

// TestMapChunksCompletesWithoutCancel is the control: every chunk runs
// exactly once and mapChunks reports success, at several pool widths.
func TestMapChunksCompletesWithoutCancel(t *testing.T) {
	for _, slots := range []int{1, 2, 8} {
		pool := &chunkPool{slots: make(chan struct{}, slots)}
		const nChunks = 100
		var hits [nChunks]atomic.Int64
		if !pool.mapChunks(context.Background(), nChunks, func(chunk int) {
			hits[chunk].Add(1)
		}) {
			t.Fatalf("slots=%d: mapChunks returned false without cancellation", slots)
		}
		for c := range hits {
			if n := hits[c].Load(); n != 1 {
				t.Fatalf("slots=%d: chunk %d ran %d times", slots, c, n)
			}
		}
	}
}

// TestSectionCancelMidChunkNoPartialResults drives each chunk-scanning
// section with contexts that flip to cancelled after a varying number of
// pool polls. Whatever the cut-off point, the invariant is all-or-nothing:
// the section either finished (its Results field equals the uncancelled
// reference) or it aborted (the whole Results stays zero). A partially
// merged section result is the bug this guards against.
func TestSectionCancelMidChunkNoPartialResults(t *testing.T) {
	ds := smallDataset(t, 7)
	sections := map[Section]func(*analysisEnv, *Results){
		SectionLeaks:     analyzeLeaks,
		SectionFig8:      analyzeFig8,
		SectionCookies:   analyzeCookies,
		SectionPolicies:  analyzePolicies,
		SectionExtension: analyzeExtension,
	}
	// Uncancelled reference for the "finished" arm of the invariant.
	ref := &Results{}
	refEnv := columnarEnv(t, ds, context.Background(), 2)
	for _, run := range sections {
		run(refEnv, ref)
	}
	zero := Results{}
	for name, run := range sections {
		for _, after := range []int64{1, 2, 5, 20, 200} {
			ctx := &cancelAfterErrs{Context: context.Background(), after: after}
			env := columnarEnv(t, ds, ctx, 2)
			res := &Results{}
			run(env, res)
			if reflect.DeepEqual(*res, zero) {
				continue // aborted cleanly, nothing written
			}
			refField := sectionResultField(t, name, ref)
			gotField := sectionResultField(t, name, res)
			if !reflect.DeepEqual(refField, gotField) {
				t.Errorf("section %s, cancel after %d polls: partial result written (differs from both zero and reference)", name, after)
			}
		}
	}
}

// sectionResultField extracts the Results fields a section owns, for the
// all-or-nothing comparison above.
func sectionResultField(t *testing.T, s Section, res *Results) any {
	t.Helper()
	switch s {
	case SectionLeaks:
		return res.Leaks
	case SectionFig8:
		return res.Fig8
	case SectionCookies:
		return res.Cookies
	case SectionPolicies:
		return res.Policies
	case SectionExtension:
		return struct {
			Rules []tracking.DerivedRule
			Ext   tracking.ExtensionResult
		}{res.DerivedRules, res.Extension}
	default:
		t.Fatalf("no field mapping for section %s", s)
		return nil
	}
}

// TestAnalyzeContextCancelMidAnalysis cancels the whole engine while
// sections are running. The returned error must be the context's; every
// section field must be either complete (equal to an uncancelled run) or
// untouched — never a truncated merge.
func TestAnalyzeContextCancelMidAnalysis(t *testing.T) {
	ds := smallDataset(t, 7)
	ref, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sweep the cut-off so different sections get caught mid-chunk on
	// different iterations; the invariant must hold at every point.
	for _, after := range []int64{1, 10, 100, 1000, 10000} {
		ctx := &cancelAfterErrs{Context: context.Background(), after: after}
		res, err := AnalyzeContext(ctx, ds, AnalyzeOptions{Parallelism: 2})
		if err == nil {
			continue // engine finished before the cut-off — nothing to check
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
		}
		if res == nil {
			continue // cancelled before the index build finished
		}
		rv := reflect.ValueOf(*ref)
		gv := reflect.ValueOf(*res)
		for _, name := range sectionFields {
			if name == "FirstParties" {
				continue // index byproduct, always set
			}
			got := gv.FieldByName(name)
			if got.IsZero() {
				continue // section never ran or aborted cleanly
			}
			if !reflect.DeepEqual(got.Interface(), rv.FieldByName(name).Interface()) {
				t.Errorf("after=%d: section field %s is neither zero nor complete", after, name)
			}
		}
	}
}
