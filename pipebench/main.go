// Command pipebench is the repository's end-to-end benchmark. It drives
// the measurement-and-analysis pipeline in-process through the library
// API on one workload, checks every iteration's output against a
// reference built in set-up, and prints each metric by name with its
// unit. Build and run it from the repository root with
//
//	bash pipebench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// The workloads are closed loops, one iteration at a time in one process,
// with the measurement engine and the analysis on j = nproc workers:
//
//	campaign      NewStudyChecked, SelectChannels, ExecuteRunsContext,
//	              Dataset.Digest, store.Save(FormatSnapshot)
//	reanalyze     store.Load, AnalyzeContext (every section), RenderAll
//	chaos-resume  a fault-injected campaign journaled by ExecuteResumable,
//	              then a fresh study resumed from a cut copy of the journal
//
// A run measures a few study worlds whose seeds derive from --seed: it
// sets each up once, then times iterations over them in turn, with passes
// of a fixed calibration kernel in between. It reports the median live
// heap, the median iteration's wall and CPU time divided by the kernel's
// median time, and the median set-up scaled to the kernel's reference
// time; these cancel most of a shared host's drifting speed. The raw
// times are on the report lines.
//
// The first line of standard output stamps the machine and the build.
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 the run goes on with traced iterations, which time each
// layer's public entry points from this package, and the last line
// carries the per-layer metrics. The lines between are a readable report.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
)

// scratchRoot, inside the checkout the benchmark runs from, holds a run's
// temporary files.
const scratchRoot = ".bench_build"

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses the command line and runs one workload. It reports whether
// every check passed.
func run(args []string, stdout io.Writer) (bool, error) {
	flags := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	name := flags.String("workload", "campaign", "campaign, reanalyze or chaos-resume")
	seed := flags.Int64("seed", 1, "study seed the workload's inputs are built from")
	seconds := flags.Float64("seconds", 10, "time budget of the timed iterations and calibrations; each world runs at least once")
	trace := flags.Int("trace", 0, "1 adds traced iterations and prints the per-layer metrics instead of the end-to-end ones")
	commit := flags.String("commit", "unknown", "commit of the measured tree, copied into the stamp")
	if err := flags.Parse(args); err != nil {
		return false, err
	}
	wl, ok := workloads[*name]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want campaign, reanalyze or chaos-resume)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return false, fmt.Errorf("-seconds must be >= 0, got %v", *seconds)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, scale: worldScale, workers: runtime.NumCPU(), dir: dir}
	st, err := json.Marshal(stamp{
		Workload: *name, Seed: cfg.seed, Scale: cfg.scale, Workers: cfg.workers,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: *commit, Source: sourceDigest("."), Trace: *trace == 1, Seconds: *seconds,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "stamp %s\n", st)
	budget := time.Duration(*seconds * float64(time.Second))
	return runWorkload(context.Background(), stdout, wl, cfg, budget, *trace == 1)
}

// stamp records what a result was measured on.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

// sourceDigest hashes the Go sources and module files under root, dot
// directories skipped: it names the measured code where no commit is
// known, as in a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metricDef is one printed metric. BENCHMARK.json lists the same names
// and units.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_cal", "cal"},
	{"cpu_cal", "cal"},
	{"peak_heap_mb", "MB"},
}

// rawMetrics are printed on report lines only: a shared host's drift
// moves them by more than the bound a regression is judged by.
var rawMetrics = []metricDef{
	{"setup_raw_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"cal_s", "s"},
}

// perLayerMetrics are the traced run's metrics in report order.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"synth.build_s", "s"},
		{"headend.requests", "count"},
		{"headend.tracker_busy_s", "s"},
		{"headend.app_busy_s", "s"},
		{"headend.other_busy_s", "s"},
		{"dvb.scan_s", "s"},
		{"core.funnel_s", "s"},
		{"core.probes", "count"},
		{"core.probe_p50_ms", "ms"},
		{"core.probe_tail_ms", "ms"},
		{"core.probe_tail_pct", "%"},
		{"core.runs_s", "s"},
		{"core.shard_span_max_s", "s"},
		{"core.shard_skew", "ratio"},
		{"core.worker_idle_s", "s"},
		{"core.engine_self_s", "s"},
		{"core.engine_us_per_flow", "us"},
		{"core.visits", "count"},
		{"core.attempts_per_visit", "ratio"},
		{"core.visit_failed_frac", "ratio"},
		{"proxy.flows", "count"},
		{"proxy.response_mb", "MB"},
		{"webos.screenshots", "count"},
		{"store.merge_s", "s"},
		{"store.digest_s", "s"},
		{"store.snapshot_save_s", "s"},
		{"store.snapshot_mb", "MB"},
		{"store.snapshot_load_s", "s"},
		{"store.index_s", "s"},
		{"store.journal_mb", "MB"},
		{"store.journal_append_s", "s"},
		{"store.resume_s", "s"},
		{"hbbtvlab.analyze_s", "s"},
	}
	for _, s := range hbbtvlab.AllSections() {
		defs = append(defs, metricDef{sectionMetric(s), "s"})
	}
	return append(defs,
		metricDef{"hbbtvlab.render_s", "s"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}()

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets up the run's worlds, then times iterations over them in
// turn for budget, at least one each, with calibration passes between them
// that add up to half the iterations' time; with traced it adds traced
// iterations on the first world for a quarter as long. It prints the
// report and the result, and reports whether every check passed.
func runWorkload(ctx context.Context, out io.Writer, wl workload, cfg config, budget time.Duration, traced bool) (bool, error) {
	worlds := wl.worlds
	benches := make([]bench, worlds)
	seeds := make([]int64, worlds)
	setups := make([]float64, worlds)
	for k := range benches {
		seeds[k] = worldSeed(cfg.seed, k, cfg.scale)
		wc := cfg
		wc.seed, wc.dir = seeds[k], filepath.Join(cfg.dir, strconv.Itoa(k))
		if err := os.MkdirAll(wc.dir, 0o755); err != nil {
			return false, err
		}
		runtime.GC()
		t0 := time.Now()
		b, err := wl.setup(ctx, wc)
		if err != nil {
			return false, fmt.Errorf("set-up of world %d (seed %d): %w", k, wc.seed, err)
		}
		setups[k], benches[k] = time.Since(t0).Seconds(), b
	}

	var o ops
	var cals []float64
	var calTime, iterTime time.Duration
	samples := make([][]sample, worlds)
	deadline, i := time.Now().Add(budget), 0
	for ; i < worlds || time.Now().Before(deadline); i++ {
		// Both medians of the ratio are noisy; a third of the time spent
		// calibrating roughly minimizes the ratio's noise.
		for len(cals) == 0 || calTime < iterTime/2 {
			c := calibrate()
			cals, calTime = append(cals, c.Seconds()), calTime+c
		}
		k := i % worlds
		var it ops
		var err error
		s := timeIteration(func() { it, err = benches[k].iterate(ctx) })
		samples[k], iterTime = append(samples[k], s), iterTime+s.wall
		o.add(it)
		logErr(err)
	}
	pooled := func(f func(sample) float64, sets ...[]sample) float64 {
		var xs []float64
		for _, ss := range sets {
			for _, s := range ss {
				xs = append(xs, f(s))
			}
		}
		return median(xs)
	}
	wall := func(s sample) float64 { return s.wall.Seconds() }
	unit := median(cals)
	m := map[string]float64{
		"setup_s":      median(setups) * calReference / unit,
		"setup_raw_s":  median(setups),
		"wall_s":       pooled(wall, samples...),
		"cpu_s":        pooled(func(s sample) float64 { return s.cpu.Seconds() }, samples...),
		"cal_s":        unit,
		"peak_heap_mb": pooled(func(s sample) float64 { return mb(int64(s.peakHeap)) }, samples...),
	}
	m["wall_cal"], m["cpu_cal"] = m["wall_s"]/unit, m["cpu_s"]/unit
	for k, ss := range samples {
		walls := make([]float64, len(ss))
		for j, s := range ss {
			walls[j] = s.wall.Seconds()
		}
		fmt.Fprintf(out, "world %d, seed %d: set-up %.3f s, iterations %.3f s\n", k, seeds[k], setups[k], walls)
	}
	fmt.Fprintf(out, "calibration: %.3f s\n", cals)
	fmt.Fprintf(out, "end-to-end: medians of %d set-ups and of %d iterations over them; wall_cal and cpu_cal are wall_s and cpu_s in units of cal_s, the calibration kernel's median time, and setup_s is setup_raw_s at the kernel's reference time of %g s\n", worlds, i, calReference)
	printMetrics(out, endToEndMetrics, m)
	printMetrics(out, rawMetrics, m)
	defs := endToEndMetrics

	if traced {
		p, n := tracedRun(ctx, benches[0], budget/4, &o)
		lm := p.metrics()
		lm["trace_overhead_frac"] = p.wall.Seconds()/pooled(wall, samples[0]) - 1
		fmt.Fprintf(out, "per-layer, first world, the traced iteration with the median wall time of %d:\n", n)
		printMetrics(out, perLayerMetrics, lm)
		defs, m = perLayerMetrics, lm
	}
	fmt.Fprintf(out, "  %-34s %12.6g (%d of %d checks failed)\n", "failed_frac",
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res.Correct, nil
}

// tracedRun runs traced iterations for budget, at least one, and returns
// the profile of the one with the median wall time and how many ran.
func tracedRun(ctx context.Context, b bench, budget time.Duration, o *ops) (*profile, int) {
	var profs []*profile
	for deadline := time.Now().Add(budget); len(profs) == 0 || time.Now().Before(deadline); {
		var p *profile
		var it ops
		var err error
		s := timeIteration(func() { p, it, err = b.traced(ctx) })
		o.add(it)
		logErr(err)
		p.wall, p.rt = s.wall, s.rt
		profs = append(profs, p)
	}
	sort.Slice(profs, func(i, j int) bool { return profs[i].wall < profs[j].wall })
	return profs[len(profs)/2], len(profs)
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %12.6g %s\n", d.name, m[d.name], d.unit)
	}
}

func logErr(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", err)
	}
}

// sample is one timed iteration.
type sample struct {
	wall, cpu time.Duration
	peakHeap  uint64 // highest /gc/heap/live:bytes seen
	rt        runtimeDelta
}

// timeIteration collects the garbage earlier work left, then runs fn
// while measuring wall time, process CPU time and the live heap.
func timeIteration(fn func()) sample {
	runtime.GC()
	stop := watchLiveHeap()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	s := sample{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	s.rt = readRuntime().since(rt0)
	s.peakHeap = stop()
	return s
}

// watchLiveHeap records the live heap after every GC cycle until the
// returned stop function is called; stop returns the highest value seen.
// The live heap changes only when a cycle ends, so rather than poll, a
// finalizer on a garbage sentinel runs once per cycle and re-arms itself.
func watchLiveHeap() (stop func() uint64) {
	var mu sync.Mutex
	var highest uint64
	stopped := false
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	observe := func() bool {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(s)
		highest = max(highest, s[0].Value.Uint64())
		return !stopped
	}
	var arm func()
	arm = func() {
		// Large enough to bypass the tiny allocator, whose objects'
		// finalizers may never run.
		runtime.SetFinalizer(new([32]byte), func(*[32]byte) {
			if observe() {
				arm()
			}
		})
	}
	observe()
	arm()
	return func() uint64 {
		observe()
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		return highest
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs, the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
