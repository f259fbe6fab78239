package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
)

// testConfig is a small world: the benchmark's code paths at a fraction
// of their cost.
func testConfig(t *testing.T) config {
	return config{seed: 3, scale: 0.03, workers: 2, dir: t.TempDir()}
}

// TestTracedFactoryMatchesStudy: the traced rebuild of Study's campaign —
// timed funnel, instrumented shard worlds, commit-stamping checkpoint
// hooks — must measure byte for byte what Study measures, and every
// recorded flow must be one request the wrapped handlers served.
func TestTracedFactoryMatchesStudy(t *testing.T) {
	ctx := context.Background()
	b, err := setupCampaign(ctx, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	p, o, err := b.traced(ctx)
	if err != nil || o.failed != 0 || o.attempted != 2 {
		t.Fatalf("traced campaign: %d of %d checks failed: %v", o.failed, o.attempted, err)
	}
	m := p.metrics()
	for _, name := range []string{"proxy.flows", "headend.tracker_busy_s", "headend.app_busy_s", "core.probes", "synth.build_s", "store.snapshot_mb"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if m["core.attempts_per_visit"] != 1 {
		t.Errorf("core.attempts_per_visit = %v in the reliable world, want 1", m["core.attempts_per_visit"])
	}
}

// TestAttributionArithmetic checks the per-layer arithmetic on synthetic
// spans: two passes over two workers, with known builds and handler time.
func TestAttributionArithmetic(t *testing.T) {
	t0 := time.Unix(0, 0)
	shard := func(start, end, build time.Duration, busy [numHostClasses]time.Duration) *shardTrace {
		st := &shardTrace{start: t0.Add(start), end: t0.Add(end), build: build}
		for c, d := range busy {
			st.busy[c].Store(int64(d))
		}
		return st
	}
	s := time.Second
	p := &profile{flows: 1000, passes: []*passTrace{
		{workers: 2, runs: 4 * s, shards: []*shardTrace{
			shard(0, 3*s, s/2, [numHostClasses]time.Duration{s / 2, s / 4, s / 4}),
			shard(0, 1*s, 0, [numHostClasses]time.Duration{}),
			shard(1*s, 3*s, s/2, [numHostClasses]time.Duration{}),
		}},
		{workers: 2, runs: 2 * s, shards: []*shardTrace{
			shard(0, 2*s, 0, [numHostClasses]time.Duration{0, s, 0}),
		}},
	}}
	m := p.metrics()
	// Spans 3, 1, 2 and 2 s: sum 8, longest 3, mean 2.
	want := map[string]float64{
		"core.shard_span_max_s":   3,
		"core.shard_skew":         1.5,
		"core.runs_s":             6,
		"core.worker_idle_s":      (2*4 - 6) + (2*2 - 2), // workers x wall - spans, per pass
		"synth.build_s":           1,
		"headend.tracker_busy_s":  0.5,
		"headend.app_busy_s":      1.25,
		"headend.other_busy_s":    0.25,
		"core.engine_self_s":      8 - 1 - 2, // spans - shard builds - handler time
		"core.engine_us_per_flow": 5e6 / 1000,
	}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}

	// A reported percentile leaves at least ten samples beyond it.
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		n, permille int
		value       time.Duration
	}{
		{1000, 990, 990 * time.Millisecond}, // p99: exactly 10 beyond
		{999, 950, 950 * time.Millisecond},  // p99 would leave 9
		{20, 500, 10 * time.Millisecond},    // the median needs 20 samples
		{19, 0, 0},                          // and nothing qualifies below that
	} {
		pm, v := tailPercentile(samples(tc.n))
		if pm != tc.permille || v != tc.value {
			t.Errorf("tailPercentile of %d samples = p%v %v, want p%v %v", tc.n, float64(pm)/10, v, float64(tc.permille)/10, tc.value)
		}
	}
	if _, ok := percentile(samples(19), 500); ok {
		t.Error("median of 19 samples reported with 9 beyond it")
	}
}

// TestWorldSeedAirsOutlier: every world a run measures has its
// extreme-volume channel on air in the Red run; seed 1000045's world lacks
// it at the benchmark's scale, so a run from there moves on.
func TestWorldSeedAirsOutlier(t *testing.T) {
	for _, seed := range []int64{1000045, 1, 2} {
		s := worldSeed(seed, 0, worldScale)
		w := synth.Build(synth.Config{Seed: s, Scale: worldScale}, clock.NewVirtual(studyStart))
		if ch := outlier(w); ch == nil || !w.Availability[store.RunRed][ch.Service.Name] {
			t.Errorf("worldSeed(%d) = %d, whose extreme-volume channel is off the air in the Red run", seed, s)
		}
		if seed == 1000045 && s == seed {
			t.Errorf("worldSeed(%d) kept a world without the channel in the Red run", seed)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct{ Name, Unit string }

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func units(defs []benchmarkMetric) map[string]string {
	out := make(map[string]string)
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// TestMetricsMatchBenchmarkJSON runs every workload, traced, on a small
// world and checks that each metric BENCHMARK.json names is printed with
// its unit: the end-to-end ones on report lines, the per-layer ones in the
// result line, which must hold exactly those.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var spec benchmarkJSON
	readJSON(t, "../BENCHMARK.json", &spec)
	e2e, layer := units(spec.EndToEnd), units(spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			wl, ok := workloads[name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", name)
			}
			var out bytes.Buffer
			ok, err := runWorkload(context.Background(), &out, wl, testConfig(t), 0, true)
			if err != nil || !ok {
				t.Fatalf("run failed (ok=%v): %v\n%s", ok, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for name, unit := range e2e {
				if !printed(lines, name, unit) {
					t.Errorf("end-to-end metric %s [%s] not printed", name, unit)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			got := make(map[string]string)
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if !equalMaps(got, layer) {
				t.Errorf("result metrics differ from BENCHMARK.json per_layer:\n got  %v\n want %v", sortedKeys(got), sortedKeys(layer))
			}
		})
	}
}

// printed reports whether a report line shows the metric with its unit.
func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k+"["+m[k]+"]")
	}
	sort.Strings(out)
	return out
}

// TestLayerMap checks layers.json, the layer to end-to-end map: it names
// only metrics and workloads BENCHMARK.json defines, and every per-layer
// metric belongs to a layer.
func TestLayerMap(t *testing.T) {
	var spec benchmarkJSON
	readJSON(t, "../BENCHMARK.json", &spec)
	var layers struct {
		Layers []struct {
			Layer       string
			Metrics     []string
			Moves       []string
			ExercisedBy []string `json:"exercised_by"`
			FlatOn      []string `json:"flat_on"`
		}
	}
	readJSON(t, "layers.json", &layers)
	e2e, layer := units(spec.EndToEnd), units(spec.PerLayer)
	covered := make(map[string]bool)
	for _, l := range layers.Layers {
		for _, m := range l.Metrics {
			if _, ok := layer[m]; !ok {
				t.Errorf("layer %s: %s is not a per_layer metric", l.Layer, m)
			}
			covered[m] = true
		}
		for _, m := range l.Moves {
			if _, ok := e2e[m]; !ok {
				t.Errorf("layer %s moves %s, not an end_to_end metric", l.Layer, m)
			}
		}
		for _, w := range append(append([]string(nil), l.ExercisedBy...), l.FlatOn...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layer %s names unknown workload %s", l.Layer, w)
			}
		}
	}
	for m := range layer {
		if !covered[m] {
			t.Errorf("per_layer metric %s belongs to no layer", m)
		}
	}
}
