package hbbtvlab

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

// Section identifies one independently computable slice of Results. Each
// section corresponds to a table, figure, or findings block of the paper
// and owns a disjoint set of Results fields, so any subset can be computed
// — serially or concurrently — without affecting the others.
type Section string

// The analysis sections.
const (
	SectionTableI    Section = "table1"    // Table I: per-run data overview
	SectionTableII   Section = "table2"    // Table II: cookie-setting third parties
	SectionTableIII  Section = "table3"    // Table III + smart-TV list comparison
	SectionFig5      Section = "fig5"      // Fig. 5: third-party long tail
	SectionFig6      Section = "fig6"      // Fig. 6: per-channel tracking
	SectionFig7      Section = "fig7"      // Fig. 7: per-category tracking
	SectionFig8      Section = "fig8"      // Fig. 8: ecosystem graph
	SectionLeaks     Section = "leaks"     // Section V-B: personal-data leakage
	SectionCookies   Section = "cookies"   // Section V-C: cookie analysis
	SectionChildren  Section = "children"  // Section V-D5: children's channels
	SectionConsent   Section = "consent"   // Section VI: consent dialogs
	SectionPolicies  Section = "policies"  // Section VII: privacy policies
	SectionStats     Section = "stats"     // statistical tests
	SectionExtension Section = "extension" // future work: derived filter rules
)

// sectionAnalyzer pairs a section name with its implementation.
type sectionAnalyzer struct {
	name Section
	run  func(env *analysisEnv, res *Results)
}

// analysisEnv is the read-only context shared by all section analyzers.
type analysisEnv struct {
	ds   *store.Dataset
	ix   *store.Index
	ctx  context.Context
	pool *chunkPool
}

// sectionChunk is the row granularity of intra-section scans: coarser than
// the index build's chunk (section work per row is heavier), fine enough
// to balance half-million-row datasets across workers.
const sectionChunk = 4096

// distinctChunk is the granularity of the passes over a table of distinct
// values (URLs, payloads, pairs): a few dozen entries amortize the
// scheduling.
const distinctChunk = 64

// sectionChunks returns the number of fixed-size row chunks covering n
// rows. The boundaries depend only on n — never on the worker count — so
// chunk-indexed results always merge in the same order.
func sectionChunks(n int) int { return chunksOf(n, sectionChunk) }

// scanChunks fans fn(chunk, lo, hi) out over the shared slot pool for the
// fixed row chunking of [0, n). fn must write only to chunk-indexed slots;
// the caller merges them in chunk order afterwards. Returns false when the
// context was cancelled — some chunks then never ran, and the caller must
// discard the partial slots instead of publishing a truncated result.
func (env *analysisEnv) scanChunks(n int, fn func(chunk, lo, hi int)) bool {
	return env.scanChunksSized(n, sectionChunk, fn)
}

// scanChunksSized is scanChunks with an explicit chunk size, for scans
// whose unit of work is much heavier than one row (e.g. one BFS source).
func (env *analysisEnv) scanChunksSized(n, size int, fn func(chunk, lo, hi int)) bool {
	return env.pool.mapChunks(env.ctx, chunksOf(n, size), func(chunk int) {
		lo := chunk * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(chunk, lo, hi)
	})
}

// scanDistinct fans fn(lo, hi) out over the fixed chunking of a table of
// n distinct values. fn fills per-value slots, so any chunking gives the
// same table.
func (env *analysisEnv) scanDistinct(n int, fn func(lo, hi int)) bool {
	return env.scanChunksSized(n, distinctChunk, func(_, lo, hi int) { fn(lo, hi) })
}

// chunksOf returns the number of size-sized chunks covering n items.
func chunksOf(n, size int) int { return (n + size - 1) / size }

// chunkPool is the shared concurrency budget of one AnalyzeContext call.
// Its slot channel has capacity Parallelism; every section worker holds a
// slot while alive, and mapChunks borrows whatever slots are momentarily
// free as helper goroutines. Total running goroutines therefore never
// exceed Parallelism, and — the point of the design — when the section
// pool has drained down to one or two heavy stragglers, the freed slots
// flow to those sections' chunk scans, so speedup tracks core count
// instead of section count.
type chunkPool struct {
	slots chan struct{}
	tel   *telemetry.Shard
}

// mapChunks runs fn(chunk) for chunk in [0, nChunks). The calling
// goroutine always participates (so Parallelism 1 spawns nothing); helper
// goroutines are recruited opportunistically between chunks as slots free
// up. Chunks are claimed from an atomic counter — the assignment of chunks
// to goroutines is racy, but callers only write chunk-indexed slots, so
// results are deterministic. Returns false if cancellation stopped the
// scan before every chunk ran.
func (p *chunkPool) mapChunks(ctx context.Context, nChunks int, fn func(chunk int)) bool {
	if nChunks <= 0 {
		return ctx.Err() == nil
	}
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			c := int(next.Add(1) - 1)
			if c >= nChunks {
				return
			}
			fn(c)
			p.tel.Counter("analyze.chunks.completed").Inc()
		}
	}
	var wg sync.WaitGroup
	for ctx.Err() == nil {
		c := int(next.Add(1) - 1)
		if c >= nChunks {
			break
		}
		// Recruit a helper per free slot while more chunks remain beyond
		// the one this goroutine is about to run.
		for int(next.Load()) < nChunks {
			select {
			case p.slots <- struct{}{}:
				p.tel.Counter("analyze.chunks.helpers").Inc()
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-p.slots }()
					work()
				}()
				continue
			default:
			}
			break
		}
		fn(c)
		p.tel.Counter("analyze.chunks.completed").Inc()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return false
	}
	return true
}

// sectionRegistry lists every analyzer, heaviest first: the worker pool
// dequeues in order, so long-running sections (policy corpus, ecosystem
// graph, cookie syncing, filter-rule derivation) start before the cheap
// table scans — classic longest-processing-time packing.
var sectionRegistry = []sectionAnalyzer{
	{SectionPolicies, analyzePolicies},
	{SectionFig8, analyzeFig8},
	{SectionCookies, analyzeCookies},
	{SectionExtension, analyzeExtension},
	{SectionLeaks, analyzeLeaks},
	{SectionConsent, analyzeConsent},
	{SectionStats, analyzeStats},
	{SectionTableII, analyzeTableII},
	{SectionChildren, analyzeChildren},
	{SectionFig6, analyzeFig6},
	{SectionFig7, analyzeFig7},
	{SectionFig5, analyzeFig5},
	{SectionTableIII, analyzeTableIII},
	{SectionTableI, analyzeTableI},
}

// AllSections returns every known section, in scheduling order.
func AllSections() []Section {
	out := make([]Section, len(sectionRegistry))
	for i, s := range sectionRegistry {
		out[i] = s.name
	}
	return out
}

// AnalyzeOptions configures AnalyzeContext.
type AnalyzeOptions struct {
	// Parallelism bounds the worker goroutines used for both the index
	// build and the section pool. <= 1 analyzes serially. The produced
	// Results are identical for every value.
	Parallelism int
	// Sections selects which analyzers run; nil or empty runs all of
	// them. Unknown sections are an error. Unselected sections leave
	// their Results fields zero.
	Sections []Section
	// Telemetry, when non-nil, receives per-section counters
	// ("analyze.section.<name>.runs") and duration histograms under the
	// controller slot, plus index-build metrics.
	Telemetry *telemetry.Registry
}

// analyzeDurationBuckets spans 100us..10s in decades (values in
// microseconds).
var analyzeDurationBuckets = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// AnalyzeContext reproduces the paper's evaluation over a measured
// dataset: it builds the shared single-pass index (store.BuildIndex) and
// then runs the selected section analyzers on a bounded worker pool.
//
// Determinism contract: for a given dataset, the returned Results are
// identical — byte-for-byte under encoding/json — for every Parallelism
// value. Sections write disjoint Results fields and read only the
// immutable index, so concurrent execution cannot reorder anything
// observable.
//
// Cancellation is cooperative: the index build aborts between
// classification chunks, and the pool skips sections not yet started.
// On cancellation the context error is returned; a partially filled
// Results may accompany it (sections already finished remain valid).
func AnalyzeContext(ctx context.Context, ds *store.Dataset, opts AnalyzeOptions) (*Results, error) {
	if ds == nil {
		return nil, errors.New("hbbtvlab: AnalyzeContext: nil dataset")
	}
	selected, err := selectSections(opts.Sections)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry.Controller(time.Now)

	cfg := tracking.NewClassifier().IndexConfig()
	cfg.Parallelism = opts.Parallelism
	start := time.Now()
	ix, err := store.BuildIndex(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	tel.Counter("analyze.index.builds").Inc()
	tel.Counter("analyze.index.flows").Add(uint64(ix.FlowCount()))
	tel.Histogram("analyze.index.build_us", analyzeDurationBuckets).
		Observe(time.Since(start).Microseconds())
	bs := ix.BuildStats()
	tel.Counter("analyze.index.chunks").Add(uint64(bs.Chunks))
	tel.Counter("analyze.index.unique_urls").Add(uint64(bs.UniqueURLs))

	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	pool := &chunkPool{slots: make(chan struct{}, par), tel: tel}

	// FirstParties is a byproduct of the index and is always populated,
	// whatever the section selection — several renderers key off it.
	res := &Results{FirstParties: ix.FirstParty}
	env := &analysisEnv{ds: ds, ix: ix, ctx: ctx, pool: pool}

	workers := par
	if workers > len(selected) {
		workers = len(selected)
	}
	jobs := make(chan sectionAnalyzer)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Hold one pool slot for this worker's lifetime; on exit it
			// frees up as helper capacity for still-running sections.
			pool.slots <- struct{}{}
			defer func() { <-pool.slots }()
			for s := range jobs {
				if ctx.Err() != nil {
					continue // drain without running
				}
				t0 := time.Now()
				s.run(env, res)
				tel.Counter("analyze.section." + string(s.name) + ".runs").Inc()
				tel.Histogram("analyze.section."+string(s.name)+".us", analyzeDurationBuckets).
					Observe(time.Since(t0).Microseconds())
				tel.Counter("analyze.sections.completed").Inc()
			}
		}()
	}
	for _, s := range selected {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// selectSections resolves a requested section set against the registry,
// preserving scheduling order and dropping duplicates. nil/empty selects
// everything.
func selectSections(req []Section) ([]sectionAnalyzer, error) {
	if len(req) == 0 {
		return sectionRegistry, nil
	}
	known := make(map[Section]bool, len(sectionRegistry))
	for _, s := range sectionRegistry {
		known[s.name] = true
	}
	want := make(map[Section]bool, len(req))
	for _, s := range req {
		if !known[s] {
			return nil, fmt.Errorf("hbbtvlab: unknown analysis section %q (known: %v)", s, AllSections())
		}
		want[s] = true
	}
	out := make([]sectionAnalyzer, 0, len(want))
	for _, s := range sectionRegistry {
		if want[s.name] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Analyze reproduces the full evaluation serially. It is the
// compatibility wrapper over AnalyzeContext; new callers wanting
// parallelism, section selection, telemetry, or cancellation should call
// AnalyzeContext directly.
func Analyze(ds *store.Dataset) *Results {
	res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{})
	if err != nil {
		// Unreachable for a non-nil dataset: the background context never
		// cancels and the default section set is always valid.
		panic("hbbtvlab: Analyze: " + err.Error())
	}
	return res
}
