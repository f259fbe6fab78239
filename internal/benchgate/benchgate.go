// Package benchgate gates CI on benchmark regressions. It parses the
// machine-readable (test2json) stream that `make bench-analyze` records as
// BENCH_analyze.json, extracts the per-benchmark metrics Go's testing
// package printed (ns/op plus every b.ReportMetric unit), and checks them
// against committed floors from BENCH_floor.json.
//
// The headline floor is the analysis engine's parallel scaling:
// BenchmarkAnalyze/j=8 must reach a committed speedup-vs-serial. Speedup
// is physically bounded by the cores the runner has, so a floor is
// clamped by the gomaxprocs metric the benchmark reports — a 1-core CI
// box is held to ~1.0, an 8-core box to the full committed floor. The
// clamp uses the bench's own metric (falling back to the -procs suffix of
// the benchmark name), never the gate process's runtime, because the gate
// may inspect an artifact recorded on a different machine.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed result line.
type Result struct {
	// Name is the benchmark name with the -procs suffix stripped
	// (BenchmarkAnalyze/j=8-4 -> BenchmarkAnalyze/j=8).
	Name string
	// Procs is the GOMAXPROCS suffix of the name (1 when absent — the
	// testing package omits it for GOMAXPROCS=1).
	Procs float64
	// Iterations is the b.N the result line reports.
	Iterations int64
	// Metrics maps unit -> value for every "value unit" pair on the
	// result line ("ns/op", "speedup-vs-serial", "gomaxprocs", ...).
	Metrics map[string]float64
}

// Gomaxprocs returns the benchmark's view of the runner's parallelism:
// the explicit gomaxprocs metric when reported, else the -procs name
// suffix.
func (r *Result) Gomaxprocs() float64 {
	if g, ok := r.Metrics["gomaxprocs"]; ok && g >= 1 {
		return g
	}
	return r.Procs
}

// testEvent is the subset of test2json's event schema the parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// procsSuffix matches the -N GOMAXPROCS suffix of a benchmark name.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// Results is every benchmark result line of a stream, in stream order.
// Under -cpu or -count one benchmark has several lines: one per (procs,
// run).
type Results []*Result

// Named returns the lines of the (suffix-stripped) benchmark name, in
// stream order.
func (rs Results) Named(name string) []*Result {
	var out []*Result
	for _, r := range rs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// ParseTestJSON reads a test2json stream and returns every benchmark
// result line it holds. Output events are concatenated before
// line-splitting: the testing package flushes a result line in several
// writes (the name first, the timing after the run), so a single event
// rarely holds a whole line.
func ParseTestJSON(r io.Reader) (Results, error) {
	var out strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("benchgate: malformed test2json line: %w", err)
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return parseBenchOutput(out.String())
}

// parseBenchOutput extracts benchmark result lines from plain `go test
// -bench` output. A result line is
//
//	BenchmarkName[-procs] <tab> N <tab> value unit [value unit]...
func parseBenchOutput(text string) (Results, error) {
	var results Results
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." banner lines, not results
		}
		name := fields[0]
		procs := 1.0
		if m := procsSuffix.FindStringSubmatch(name); m != nil {
			if p, err := strconv.ParseFloat(m[1], 64); err == nil {
				name = strings.TrimSuffix(name, m[0])
				procs = p
			}
		}
		res := &Result{Name: name, Procs: procs, Iterations: iters, Metrics: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad metric value %q on %s", fields[i], name)
			}
			res.Metrics[fields[i+1]] = v
		}
		results = append(results, res)
	}
	return results, nil
}

// Floor is one committed lower bound on a benchmark metric. Direction is
// "at least" — floors gate throughput-style metrics (speedups); latency
// metrics would be gated by committing the reciprocal.
type Floor struct {
	// Benchmark names the (suffix-stripped) benchmark the floor applies to.
	Benchmark string `json:"benchmark"`
	// Metric is the unit to check (e.g. "speedup-vs-serial").
	Metric string `json:"metric"`
	// Value is the committed floor on a machine with at least FullAtProcs
	// cores.
	Value float64 `json:"floor"`
	// PerCore scales the floor down on smaller machines: below
	// FullAtProcs cores the effective floor is PerCore * gomaxprocs,
	// never below Min. Zero disables clamping (the full floor applies
	// everywhere).
	PerCore float64 `json:"floor_per_core,omitempty"`
	// Min is the clamp's lower bound (a 1-core box still must not
	// regress below serial throughput by more than this allows).
	Min float64 `json:"floor_min,omitempty"`
	// FullAtProcs is the core count at which the full floor applies;
	// defaults to Value/PerCore when unset.
	FullAtProcs float64 `json:"full_at_procs,omitempty"`
	// Note documents why the floor holds (shown on failure).
	Note string `json:"note,omitempty"`
}

// Effective returns the floor after the core-count clamp.
func (f *Floor) Effective(gomaxprocs float64) float64 {
	if f.PerCore <= 0 {
		return f.Value
	}
	fullAt := f.FullAtProcs
	if fullAt <= 0 {
		fullAt = f.Value / f.PerCore
	}
	if gomaxprocs >= fullAt {
		return f.Value
	}
	eff := f.PerCore * gomaxprocs
	if eff < f.Min {
		eff = f.Min
	}
	if eff > f.Value {
		eff = f.Value
	}
	return eff
}

// Verdict is one floor's evaluation against a parsed bench stream.
type Verdict struct {
	Floor     Floor
	Result    *Result // nil when the benchmark is missing from the stream
	Value     float64
	Effective float64
	OK        bool
}

func (v Verdict) String() string {
	if v.Result == nil {
		return fmt.Sprintf("FAIL %s: benchmark not found in stream", v.Floor.Benchmark)
	}
	status := "ok  "
	if !v.OK {
		status = "FAIL"
	}
	s := fmt.Sprintf("%s %s: %s = %.3f, floor %.3f (committed %.3f at >=%.0f procs, ran with %.0f)",
		status, v.Floor.Benchmark, v.Floor.Metric, v.Value, v.Effective,
		v.Floor.Value, v.fullAt(), v.Result.Gomaxprocs())
	if !v.OK && v.Floor.Note != "" {
		s += "\n     note: " + v.Floor.Note
	}
	return s
}

func (v Verdict) fullAt() float64 {
	if v.Floor.FullAtProcs > 0 {
		return v.Floor.FullAtProcs
	}
	if v.Floor.PerCore > 0 {
		return v.Floor.Value / v.Floor.PerCore
	}
	return 1
}

// Check evaluates every floor against every result line of its benchmark,
// each against the floor clamped by that line's own gomaxprocs, so a
// stream recorded under -cpu 1,2 or -count N is gated line by line. A
// floor whose benchmark has no line fails once. The returned verdicts are
// sorted by benchmark name, lines in stream order; ok reports whether all
// passed.
func Check(results Results, floors []Floor) (verdicts []Verdict, ok bool) {
	ok = true
	for _, f := range floors {
		named := results.Named(f.Benchmark)
		if len(named) == 0 {
			verdicts = append(verdicts, Verdict{Floor: f})
			ok = false
			continue
		}
		for _, res := range named {
			val, has := res.Metrics[f.Metric]
			v := Verdict{Floor: f, Result: res, Value: val, Effective: f.Effective(res.Gomaxprocs())}
			v.OK = has && val >= v.Effective
			ok = ok && v.OK
			verdicts = append(verdicts, v)
		}
	}
	sort.SliceStable(verdicts, func(a, b int) bool {
		return verdicts[a].Floor.Benchmark < verdicts[b].Floor.Benchmark
	})
	return verdicts, ok
}

// MatchFloors selects the floors whose benchmark name matches the given
// regular expression. The floor file is shared by several bench targets
// (bench-analyze, bench-measure), each recording only its own benchmarks,
// so a gate run filters the floors to the stream it is checking. An empty
// pattern selects everything; a pattern matching no floor is an error —
// a gate that silently checks nothing is worse than one that fails.
func MatchFloors(floors []Floor, pattern string) ([]Floor, error) {
	if pattern == "" {
		return floors, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("benchgate: bad floor match pattern: %w", err)
	}
	var matched []Floor
	for _, f := range floors {
		if re.MatchString(f.Benchmark) {
			matched = append(matched, f)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("benchgate: no floor matches %q", pattern)
	}
	return matched, nil
}

// LoadFloors decodes a BENCH_floor.json document: a JSON array of floors.
func LoadFloors(r io.Reader) ([]Floor, error) {
	var floors []Floor
	dec := json.NewDecoder(r)
	if err := dec.Decode(&floors); err != nil {
		return nil, fmt.Errorf("benchgate: parse floor file: %w", err)
	}
	for i, f := range floors {
		if f.Benchmark == "" || f.Metric == "" {
			return nil, fmt.Errorf("benchgate: floor %d missing benchmark or metric", i)
		}
		if f.Value <= 0 {
			return nil, fmt.Errorf("benchgate: floor %d (%s) has non-positive floor", i, f.Benchmark)
		}
	}
	return floors, nil
}
