package hbbtvlab

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at paper scale (3,575 received services, 396 analyzed
// channels, the five measurement runs). The full study executes once per
// test binary; each benchmark then measures the analysis that produces its
// table/figure and reports the reproduced headline numbers as metrics so
// the paper-vs-measured comparison is part of the bench output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/cookies"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

var (
	benchOnce    sync.Once
	benchFunnel  *core.FunnelReport
	benchDataset *store.Dataset
	benchResults *Results
	benchEnv     *analysisEnv
)

// flowCount counts the flows of every run in ds.
func flowCount(ds *store.Dataset) int {
	n := 0
	for _, run := range ds.Runs {
		n += len(run.Flows)
	}
	return n
}

// benchFixture runs the paper-scale study once and reuses it everywhere,
// together with the section analyzers' environment: the dataset's
// columnar index and a chunk pool with a single slot.
func benchFixture(b *testing.B) (*store.Dataset, *Results) {
	b.Helper()
	benchOnce.Do(func() {
		start := time.Now()
		study := NewStudy(Options{Seed: 1, Scale: 1.0})
		funnel, err := study.SelectChannels()
		if err != nil {
			panic(err)
		}
		ds, err := study.Execute(context.Background(), Plan{})
		if err != nil {
			panic(err)
		}
		ix, err := store.BuildIndex(context.Background(), ds, tracking.NewClassifier().IndexConfig())
		if err != nil {
			panic(err)
		}
		benchFunnel = funnel
		benchDataset = ds
		if benchResults, err = AnalyzeContext(context.Background(), ds, AnalyzeOptions{}); err != nil {
			panic(err)
		}
		benchEnv = &analysisEnv{
			ds: ds, ix: ix, ctx: context.Background(),
			pool: &chunkPool{slots: make(chan struct{}, 1)},
		}
		fmt.Fprintf(os.Stderr, "[bench fixture] paper-scale study: %d channels, %d flows, built in %v\n",
			funnel.FinalCount(), flowCount(ds), time.Since(start).Round(time.Millisecond))
	})
	return benchDataset, benchResults
}

// benchSection times one section analyzer the way an AnalyzeContext
// worker runs it, but serially: the caller holds the pool's only slot,
// so the analyzer's chunk scans recruit no helpers.
func benchSection(b *testing.B, analyze func(*analysisEnv, *Results)) {
	b.Helper()
	benchFixture(b)
	benchEnv.pool.slots <- struct{}{}
	defer func() { <-benchEnv.pool.slots }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze(benchEnv, new(Results))
	}
}

// BenchmarkChannelFunnel regenerates the Section IV-B funnel (3,575
// received -> 396 analyzed).
func BenchmarkChannelFunnel(b *testing.B) {
	benchFixture(b)
	defer b.ReportMetric(float64(benchFunnel.Received), "received")
	defer b.ReportMetric(float64(benchFunnel.FinalCount()), "final")
	clk := clock.NewVirtual(time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: 1, Scale: 1.0}, clk)
	bouquet := dvb.NewReceiver().Scan(world.Universe)
	// Benchmark the metadata filtering steps (probe = AIT presence, so the
	// loop cost is the funnel logic itself, not the exploratory watching).
	probe := func(svc *dvb.Service) (bool, error) { return svc.HasAIT(), nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectChannels(bouquet, probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates Table I (per-run data overview).
func BenchmarkTableI(b *testing.B) {
	_, res := benchFixture(b)
	var totalReq int
	for _, row := range res.TableI {
		totalReq += row.HTTPReq + row.HTTPSReq
	}
	defer b.ReportMetric(float64(totalReq), "requests")
	defer b.ReportMetric(res.Stats.RunTraffic.P, "p-run-traffic")
	benchSection(b, analyzeTableI)
}

// BenchmarkTableII regenerates Table II (cookie-setting third parties).
func BenchmarkTableII(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.TableII[1].Parties), "red-3ps")
	benchSection(b, analyzeTableII)
}

// BenchmarkTableIII regenerates Table III (filter lists vs heuristics).
func BenchmarkTableIII(b *testing.B) {
	_, res := benchFixture(b)
	var pixels, piHole int
	for _, r := range res.TableIII {
		pixels += r.TrackingPxl
		piHole += r.OnPiHole
	}
	defer b.ReportMetric(float64(pixels), "pixels")
	defer b.ReportMetric(float64(piHole), "pihole-hits")
	benchSection(b, analyzeTableIII)
}

// BenchmarkTableIV regenerates Table IV (overlay-type distribution), which
// the consent section computes.
func BenchmarkTableIV(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Consent.TableIV[1].MediaLib), "red-medialib")
	benchSection(b, analyzeConsent)
}

// BenchmarkTableV regenerates Table V (privacy-information prevalence),
// which the consent section computes.
func BenchmarkTableV(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Consent.ChannelsWithPrivacy), "privacy-channels")
	benchSection(b, analyzeConsent)
}

// BenchmarkFigure5 regenerates Fig. 5 (cookie-using third-party long tail).
func BenchmarkFigure5(b *testing.B) {
	_, res := benchFixture(b)
	if len(res.Fig5.Top) > 0 {
		defer b.ReportMetric(float64(res.Fig5.Top[0].Degree), "top-party-channels")
	}
	benchSection(b, analyzeFig5)
}

// BenchmarkFigure6 regenerates Fig. 6 (trackers per channel).
func BenchmarkFigure6(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(res.Fig6.Requests.Mean, "mean-tracking-req")
	defer b.ReportMetric(res.Fig6.Requests.Max, "max-tracking-req")
	benchSection(b, analyzeFig6)
}

// BenchmarkFigure7 regenerates Fig. 7 (trackers by channel category).
func BenchmarkFigure7(b *testing.B) {
	_, res := benchFixture(b)
	if len(res.Fig7) > 0 {
		defer b.ReportMetric(float64(res.Fig7[0].TrackingRequests), "top-category-req")
	}
	benchSection(b, analyzeFig7)
}

// BenchmarkFigure8 regenerates Fig. 8 (ecosystem graph metrics).
func BenchmarkFigure8(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Fig8.Nodes), "nodes")
	defer b.ReportMetric(float64(res.Fig8.Edges), "edges")
	defer b.ReportMetric(res.Fig8.AvgPathLength, "avg-path-len")
	benchSection(b, analyzeFig8)
}

// BenchmarkLeakage regenerates the Section V-B personal-data search.
func BenchmarkLeakage(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Leaks.TechnicalChannels), "tech-channels")
	defer b.ReportMetric(float64(res.Leaks.TechnicalParties), "tech-parties")
	benchSection(b, analyzeLeaks)
}

// BenchmarkCookieSync regenerates Section V-C, whose heavy half is the
// V-C3 syncing detection.
func BenchmarkCookieSync(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Cookies.SyncParties), "sync-parties")
	benchSection(b, analyzeCookies)
}

// BenchmarkChildrenCaseStudy regenerates Section V-D5.
func BenchmarkChildrenCaseStudy(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(len(res.Children.Channels)), "children-channels")
	defer b.ReportMetric(float64(res.Children.TrackingRequests), "tracking-req")
	defer b.ReportMetric(res.Children.MWU.P, "mwu-p")
	benchSection(b, analyzeChildren)
}

// BenchmarkConsentNotices regenerates Section VI, the notice inventory
// included.
func BenchmarkConsentNotices(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(len(res.Consent.Styles)), "stylings")
	defer b.ReportMetric(float64(res.Consent.Nudging.DefaultIsAccept), "default-accept")
	benchSection(b, analyzeConsent)
}

// BenchmarkPolicyPipeline regenerates the Section VII corpus pipeline and
// the policy findings built on it.
func BenchmarkPolicyPipeline(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(res.Policies.Corpus.Occurrences), "occurrences")
	defer b.ReportMetric(float64(len(res.Policies.Corpus.Unique)), "unique")
	defer b.ReportMetric(float64(len(res.Policies.Corpus.NearDuplicateGroups)), "neardup-groups")
	defer b.ReportMetric(float64(len(res.Policies.WindowViolations)), "window-violations")
	benchSection(b, analyzePolicies)
}

// BenchmarkDerivedRules regenerates the future-work extension: filter
// rules derived from observed traffic, and the coverage they add over the
// Pi-hole base list.
func BenchmarkDerivedRules(b *testing.B) {
	_, res := benchFixture(b)
	defer b.ReportMetric(float64(len(res.DerivedRules)), "rules")
	defer b.ReportMetric(res.Extension.CoverageBefore()*100, "coverage-before-pct")
	defer b.ReportMetric(res.Extension.CoverageAfter()*100, "coverage-after-pct")
	benchSection(b, analyzeExtension)
}

// BenchmarkAnalyze measures the full analysis engine at paper scale for
// increasing worker counts. Every parallel sub-benchmark hard-asserts
// that its Results JSON equals the j=1 bytes — the engine's determinism
// contract — and reports its wall-clock speedup against j=1. Each
// sub-benchmark also reports gomaxprocs: speedup is bounded by the cores
// the runner actually has, and the bench-regression gate
// (internal/benchgate) clamps its floor by this metric, so a 1-core CI
// box does not fail the 8-worker scaling target it cannot express.
func BenchmarkAnalyze(b *testing.B) {
	ds, _ := benchFixture(b)
	var (
		baseline   []byte
		serialTime time.Duration
	)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			var encoded []byte
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				encoded, err = json.Marshal(res)
				if err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start) / time.Duration(b.N)
			if baseline == nil {
				baseline = encoded
				serialTime = elapsed
			} else if !bytes.Equal(encoded, baseline) {
				b.Fatalf("j=%d Results differ from j=1; engine is not worker-independent", j)
			}
			if serialTime > 0 {
				b.ReportMetric(float64(serialTime)/float64(elapsed), "speedup-vs-serial")
			}
		})
	}
}

// BenchmarkAnalyzeSections measures a single-section analysis — the cost
// a caller pays for one table instead of the full evaluation.
func BenchmarkAnalyzeSections(b *testing.B) {
	ds, _ := benchFixture(b)
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeContext(context.Background(), ds, AnalyzeOptions{
			Parallelism: 4,
			Sections:    []Section{SectionTableI},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolParallelism measures the sharded measurement engine at
// increasing worker counts. Beyond the timing, every sub-benchmark
// hard-asserts that its merged dataset digest equals the j=1 digest —
// speed may vary with the core count of the machine, byte-identity may
// not. The speedup-vs-serial metric reports the wall-clock ratio against
// the j=1 sub-benchmark.
func BenchmarkPoolParallelism(b *testing.B) {
	const seed, scale = 1, 0.1
	var (
		baseline   string
		serialTime time.Duration
	)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			var digest string
			start := time.Now()
			for i := 0; i < b.N; i++ {
				study := NewStudy(Options{
					Seed: seed, Scale: scale,
					ProbeWatch:  30 * time.Second,
					Parallelism: j,
				})
				ds, err := study.Execute(context.Background(), Plan{})
				if err != nil {
					b.Fatal(err)
				}
				digest, err = ds.Digest()
				if err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start) / time.Duration(b.N)
			if baseline == "" {
				baseline = digest
				serialTime = elapsed
			} else if digest != baseline {
				b.Fatalf("j=%d digest %s != j=1 digest %s; engine is not worker-independent", j, digest, baseline)
			}
			if serialTime > 0 {
				b.ReportMetric(float64(serialTime)/float64(elapsed), "speedup-vs-serial")
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkTransportModes compares the in-process transport against the
// real loopback path through the CONNECT-capable proxy: identical flows,
// orders of magnitude apart in cost.
func BenchmarkTransportModes(b *testing.B) {
	in := hostnet.New()
	in.HandleFunc("bench.example.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		_, _ = w.Write([]byte("GIF89a"))
	})
	b.Run("direct", func(b *testing.B) {
		rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, clock.Real{})
		client := &http.Client{Transport: rec}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get("http://bench.example.de/px")
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.Run("loopback-proxy", func(b *testing.B) {
		upstream, err := hostnet.Serve(in)
		if err != nil {
			b.Fatal(err)
		}
		defer upstream.Close()
		rec := proxy.NewRecorder(&proxy.RerouteTransport{Addr: upstream.Addr()}, clock.Real{})
		srv, err := proxy.NewServer(rec)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(srv.URL())}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get("http://bench.example.de/px")
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkFirstPartyRule compares the paper's filter-list-corrected
// first-party identification against the naive first-request rule: the
// index build with the engine's known-tracker mask against the same build
// with no mask.
func BenchmarkFirstPartyRule(b *testing.B) {
	ds, res := benchFixture(b)
	corrected := tracking.NewClassifier().IndexConfig()
	naive := corrected
	naive.KnownTrackerMask = 0
	naiveIx, err := store.BuildIndex(context.Background(), ds, naive)
	if err != nil {
		b.Fatal(err)
	}
	diff := 0
	for ch, fp := range res.FirstParties {
		if naiveIx.FirstParty[ch] != fp {
			diff++
		}
	}
	defer b.ReportMetric(float64(diff), "channels-misclassified-by-naive")
	for _, v := range []struct {
		name string
		cfg  store.IndexConfig
	}{{"corrected", corrected}, {"naive", naive}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.BuildIndex(context.Background(), ds, v.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIDHeuristic compares the paper's ID heuristic (length band +
// timestamp exclusion) against the length-only variant, reporting the
// timestamp false positives the exclusion removes.
func BenchmarkIDHeuristic(b *testing.B) {
	benchFixture(b)
	events := benchEnv.ix.SetEvents
	lo := time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)
	hi := time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC)
	full, lenOnly := 0, 0
	seen := map[string]struct{}{}
	for _, e := range events {
		if _, dup := seen[e.Value]; dup {
			continue
		}
		seen[e.Value] = struct{}{}
		if cookies.IsLikelyID(e.Value, lo, hi) {
			full++
		}
		if cookies.IsLikelyIDLenOnly(e.Value) {
			lenOnly++
		}
	}
	defer b.ReportMetric(float64(full), "ids-full-heuristic")
	defer b.ReportMetric(float64(lenOnly-full), "timestamp-false-positives")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cookies.PotentialIDs(events, lo, hi)
	}
}

// BenchmarkAttribution compares referrer-corrected channel attribution
// against the naive last-switch rule on a synthetic switch-heavy exchange.
func BenchmarkAttribution(b *testing.B) {
	in := hostnet.New()
	in.HandleFunc("app.chan-a.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte("<html></html>"))
	})
	in.HandleFunc("late.tracker.de", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/gif")
		_, _ = w.Write([]byte("GIF89a"))
	})
	run := func(b *testing.B, corrected bool) int {
		misattributed := 0
		clk := clock.NewVirtual(time.Date(2023, 9, 1, 10, 0, 0, 0, time.UTC))
		rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, clk)
		rec.SetRefererCorrection(corrected)
		client := &http.Client{Transport: rec}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			rec.SwitchChannel("A", "1")
			_, _ = client.Get("http://app.chan-a.de/index.html")
			clk.Sleep(30 * time.Second)
			rec.SwitchChannel("B", "2")
			clk.Sleep(2 * time.Second)
			req, _ := http.NewRequest(http.MethodGet, "http://late.tracker.de/px", nil)
			req.Header.Set("Referer", "http://app.chan-a.de/index.html")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			flows := rec.Flows()
			if flows[len(flows)-1].Channel != "A" {
				misattributed++
			}
		}
		return misattributed
	}
	b.Run("referer-corrected", func(b *testing.B) {
		if mis := run(b, true); mis != 0 {
			b.Fatalf("corrected attribution failed %d times", mis)
		}
	})
	b.Run("naive", func(b *testing.B) {
		if mis := run(b, false); mis != b.N {
			b.Fatalf("naive attribution accidentally correct (%d/%d wrong)", mis, b.N)
		}
	})
}

// BenchmarkMeasureThroughput measures the measurement engine end-to-end —
// synthesis, tuning, watching, recording — at paper scale, reporting
// flows/s. This is the hot path the interned hosts and header blocks and
// the arena-allocated flow records optimise; the bench-
// regression gate (internal/benchgate) holds the floor, clamped by the
// gomaxprocs metric so a small CI box is judged against a
// proportionally smaller target. Every sub-benchmark hard-asserts that
// its dataset digest equals the j=1 digest: throughput work must never
// buy speed with bytes.
//
// j=1 also reports the campaign's memory next to its snapshot's, each as
// the live heap after a forced GC less the live heap before the runs (the
// test binary's own fixtures): live-MB with the last run's dataset still
// referenced, snapshot-live-MB once that dataset is replaced by its own
// snapshot, reloaded.
func BenchmarkMeasureThroughput(b *testing.B) {
	var baseline string
	for _, j := range []int{1, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			var (
				digest string
				flows  int
				ds     *store.Dataset
			)
			var elapsed time.Duration
			base := liveHeapMB()
			for i := 0; i < b.N; i++ {
				// Telemetry (spans included) stays on: the throughput floor
				// is the instrumented engine's, and the digest assert below
				// doubles as the observer-effect proof at paper scale.
				opts := Options{Seed: 1, Scale: 1.0, Parallelism: j}
				opts.Telemetry = NewTelemetry(opts)
				study := NewStudy(opts)
				start := time.Now()
				var err error
				ds, err = study.Execute(context.Background(), Plan{})
				if err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(start)
				flows = flowCount(ds)
				if ds.Trace == nil || len(ds.Trace.Spans) == 0 {
					b.Fatal("instrumented run produced no span trace")
				}
				if digest, err = ds.Digest(); err != nil {
					b.Fatal(err)
				}
			}
			elapsed /= time.Duration(b.N)
			b.ReportMetric(float64(flows)/elapsed.Seconds(), "flows/s")
			b.ReportMetric(float64(flows), "flows")
			if j == 1 {
				live, snapshotLive := datasetHeapMB(b, &ds)
				b.ReportMetric(live-base, "live-MB")
				b.ReportMetric(snapshotLive-base, "snapshot-live-MB")
			}
			if baseline == "" {
				baseline = digest
			} else if digest != baseline {
				b.Fatalf("j=%d digest %s != j=1 digest %s; engine is not worker-independent", j, digest, baseline)
			}
		})
	}
}

// liveHeapMB forces a GC and returns the live heap in MB. It collects
// twice: a sync.Pool keeps its entries through one collection, and
// encoding/json pools the encode buffer of a saved dataset's trace.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// datasetHeapMB returns the live heap while *ds is referenced, then the
// live heap after *ds is dropped for the same dataset saved as a snapshot
// file and loaded back. It clears *ds, so the caller must hold no other
// reference to the dataset.
func datasetHeapMB(b *testing.B, ds **store.Dataset) (live, snapshotLive float64) {
	live = liveHeapMB()
	path := filepath.Join(b.TempDir(), "dataset.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Save(f, *ds, store.FormatSnapshot); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	*ds = nil
	if f, err = os.Open(path); err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	loaded, err := store.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	snapshotLive = liveHeapMB()
	runtime.KeepAlive(loaded)
	return live, snapshotLive
}

// BenchmarkSpanOverhead measures the tracer hot path in isolation — one
// StartSpan/End pair on a shard slot, the cost every instrumented phase
// pays — reporting spans/s (floored by the benchgate) and allocs/span.
// The allocation pin is hard: the freelist and chunked arena make a
// note-less span amortize to well under one allocation, and the bench
// fails if that regresses, because the measurement engine opens a span
// for every visit, attempt, tune, AIT decode, and probe.
func BenchmarkSpanOverhead(b *testing.B) {
	const spansPerOp = 100_000
	base := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	var elapsed time.Duration
	var mallocs, spans uint64
	for i := 0; i < b.N; i++ {
		reg := telemetry.New(telemetry.Options{Shards: 1, SpanCap: spansPerOp})
		now := base
		sh := reg.Shard(0, func() time.Time {
			now = now.Add(time.Millisecond)
			return now
		})
		// Warm the freelist and first chunk outside the measured window.
		sh.StartSpan(telemetry.SpanVisit, "warm").End()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for k := 0; k < spansPerOp; k++ {
			sh.StartSpan(telemetry.SpanVisit, "bench").End()
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		spans += spansPerOp
	}
	perSpan := float64(mallocs) / float64(spans)
	b.ReportMetric(float64(spans)/elapsed.Seconds(), "spans/s")
	b.ReportMetric(perSpan, "allocs/span")
	if perSpan >= 1 {
		b.Fatalf("span hot path allocates %.3f objects per span, want amortized < 1", perSpan)
	}
}

var (
	mergeOnce   sync.Once
	mergeShards []*store.Dataset
	mergeDedup  *store.Dedup
)

// mergeFixture measures a 4-way fleet of the paper-scale study once and
// round-trips every shard through the snapshot format with one shared
// content-addressed table — the exact state hbbtv-merge holds after
// loading its inputs.
func mergeFixture(b *testing.B) ([]*store.Dataset, *store.Dedup) {
	b.Helper()
	mergeOnce.Do(func() {
		const n = 4
		start := time.Now()
		dd := store.NewDedup()
		for i := 0; i < n; i++ {
			study := NewStudy(Options{Seed: 1, Scale: 1.0, Parallelism: 2, Shards: n})
			ds, err := study.Execute(context.Background(), Plan{Shard: i, Of: n})
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if err := store.Save(&buf, ds, store.FormatSnapshot); err != nil {
				panic(err)
			}
			loaded, err := store.LoadDedup(bytes.NewReader(buf.Bytes()), dd)
			if err != nil {
				panic(err)
			}
			mergeShards = append(mergeShards, loaded)
		}
		mergeDedup = dd
		fmt.Fprintf(os.Stderr, "[bench fixture] %d-shard paper-scale fleet built in %v\n",
			n, time.Since(start).Round(time.Millisecond))
	})
	return mergeShards, mergeDedup
}

// BenchmarkMergeShards measures hbbtv-merge's hot path: manifest
// verification plus the canonical-order recombination of a 4-shard
// paper-scale fleet, reporting merged flows/s. The cross-shard dedup
// ratio of the loaded fixture rides along as a metric; the bench-
// regression gate (internal/benchgate) holds the flows/s floor, clamped
// by gomaxprocs like the other engine floors.
func BenchmarkMergeShards(b *testing.B) {
	shards, dd := mergeFixture(b)
	var flows int
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		merged, err := store.MergeShards(context.Background(), nil, shards)
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		flows = flowCount(merged)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(dd.Stats().BlobRatio()*100, "dedup-blob-pct")
	b.ReportMetric(float64(flows), "flows")
	b.ReportMetric(float64(flows)*float64(b.N)/elapsed.Seconds(), "flows/s")
}

// BenchmarkSnapshotFormats measures dataset persistence costs on the
// paper-scale dataset: the binary snapshot's save and load, plus
// Dataset.Digest, which encodes the runs as a snapshot save does. The
// snapshot-load sub-benchmark is the one the CI acceptance
// criterion watches (paper-scale load well under 200 ms); make
// bench-snapshot runs every line at GOMAXPROCS 1 and 2, each reporting
// the GOMAXPROCS it ran at.
func BenchmarkSnapshotFormats(b *testing.B) {
	ds, _ := benchFixture(b)
	var snapBytes []byte
	b.Run("save-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := store.Save(&buf, ds, store.FormatSnapshot); err != nil {
				b.Fatal(err)
			}
			snapBytes = buf.Bytes()
		}
		b.ReportMetric(float64(len(snapBytes)), "bytes")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
	b.Run("digest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ds.Digest(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
	b.Run("load-snapshot", func(b *testing.B) {
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			// Collect the previous iteration's ~170MB dataset outside the
			// timed region; a real consumer loads once and pays no such GC.
			runtime.GC()
			start := time.Now()
			if _, err := store.Load(bytes.NewReader(snapBytes)); err != nil {
				b.Fatal(err)
			}
			elapsed += time.Since(start)
		}
		perLoad := elapsed / time.Duration(b.N)
		b.ReportMetric(float64(perLoad.Milliseconds()), "ms/load")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
