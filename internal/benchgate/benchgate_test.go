package benchgate

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// stream builds a test2json stream whose output is split mid-line, the
// way the testing package actually flushes benchmark results (name
// first, timing after the iterations ran).
const sampleStream = `{"Action":"start","Package":"p"}
{"Action":"output","Package":"p","Output":"goos: linux\n"}
{"Action":"output","Package":"p","Output":"BenchmarkAnalyze\n"}
{"Action":"output","Package":"p","Test":"BenchmarkAnalyze/j=1","Output":"BenchmarkAnalyze/j=1       \t"}
{"Action":"output","Package":"p","Test":"BenchmarkAnalyze/j=1","Output":"       1\t13770488008 ns/op\t         1.000 speedup-vs-serial\t         8.000 gomaxprocs\n"}
{"Action":"output","Package":"p","Test":"BenchmarkAnalyze/j=8","Output":"BenchmarkAnalyze/j=8-8     \t"}
{"Action":"output","Package":"p","Test":"BenchmarkAnalyze/j=8","Output":"       1\t3214512008 ns/op\t         4.284 speedup-vs-serial\t         8.000 gomaxprocs\n"}
{"Action":"pass","Package":"p"}
`

func TestParseTestJSONSplitLines(t *testing.T) {
	results, err := ParseTestJSON(strings.NewReader(sampleStream))
	if err != nil {
		t.Fatal(err)
	}
	j1s := results.Named("BenchmarkAnalyze/j=1")
	if len(j1s) != 1 {
		t.Fatalf("%d j=1 results, want 1", len(j1s))
	}
	j1 := j1s[0]
	if j1.Iterations != 1 || j1.Metrics["ns/op"] != 13770488008 {
		t.Errorf("j=1 parsed wrong: %+v", j1)
	}
	j8s := results.Named("BenchmarkAnalyze/j=8")
	if len(j8s) != 1 {
		t.Fatalf("%d j=8 results, want 1 (suffix not stripped?)", len(j8s))
	}
	j8 := j8s[0]
	if j8.Procs != 8 {
		t.Errorf("j=8 procs = %v, want 8 from the -8 suffix", j8.Procs)
	}
	if got := j8.Metrics["speedup-vs-serial"]; math.Abs(got-4.284) > 1e-9 {
		t.Errorf("j=8 speedup = %v", got)
	}
	if got := j8.Gomaxprocs(); got != 8 {
		t.Errorf("Gomaxprocs() = %v, want 8", got)
	}
	if len(results.Named("BenchmarkAnalyze")) != 0 {
		t.Error("banner line parsed as a result")
	}
}

func TestGomaxprocsFallsBackToSuffix(t *testing.T) {
	results, err := parseBenchOutput("BenchmarkX-4 \t 10\t100 ns/op\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := results.Named("BenchmarkX")[0].Gomaxprocs(); got != 4 {
		t.Errorf("Gomaxprocs() = %v, want suffix 4", got)
	}
}

// analyzeFloor is the shape committed in BENCH_floor.json.
var analyzeFloor = Floor{
	Benchmark: "BenchmarkAnalyze/j=8",
	Metric:    "speedup-vs-serial",
	Value:     4.0,
	PerCore:   0.5,
	Min:       0.8,
}

func TestFloorEffectiveClamping(t *testing.T) {
	cases := []struct {
		procs float64
		want  float64
	}{
		{16, 4.0}, // big machine: full floor
		{8, 4.0},  // exactly full-at: full floor
		{4, 2.0},  // half the cores: half the floor
		{2, 1.0},
		{1, 0.8}, // 1-core CI box: clamp bottoms out at Min
	}
	for _, c := range cases {
		if got := analyzeFloor.Effective(c.procs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Effective(%v procs) = %v, want %v", c.procs, got, c.want)
		}
	}
	unclamped := Floor{Benchmark: "B", Metric: "m", Value: 3}
	if got := unclamped.Effective(1); got != 3 {
		t.Errorf("PerCore=0 must disable clamping, got %v", got)
	}
}

func TestCheckPassAndFail(t *testing.T) {
	results, err := ParseTestJSON(strings.NewReader(sampleStream))
	if err != nil {
		t.Fatal(err)
	}
	// 4.284 measured >= 4.0 floor on 8 procs: pass.
	verdicts, ok := Check(results, []Floor{analyzeFloor})
	if !ok || len(verdicts) != 1 || !verdicts[0].OK {
		t.Fatalf("expected pass, got %+v", verdicts)
	}
	// Raise the committed floor above the measurement: fail.
	tooHigh := analyzeFloor
	tooHigh.Value = 5.0
	tooHigh.PerCore = 0.625 // full at 8 procs
	if _, ok := Check(results, []Floor{tooHigh}); ok {
		t.Fatal("floor above measurement must fail")
	}
	// Missing benchmark: fail, with a nil-result verdict.
	missing := Floor{Benchmark: "BenchmarkNope", Metric: "x", Value: 1}
	verdicts, ok = Check(results, []Floor{missing})
	if ok || verdicts[0].Result != nil {
		t.Fatalf("missing benchmark must fail, got %+v", verdicts)
	}
	// Missing metric on an existing benchmark: fail.
	noMetric := Floor{Benchmark: "BenchmarkAnalyze/j=8", Metric: "no-such-unit", Value: 0.1}
	if _, ok := Check(results, []Floor{noMetric}); ok {
		t.Fatal("missing metric must fail")
	}
}

func TestCheckClampsOnSmallMachine(t *testing.T) {
	// Same benchmark recorded on a 1-core box: j=8 cannot beat serial,
	// and the clamped floor must accept that instead of failing CI.
	oneCore := `{"Action":"output","Package":"p","Output":"BenchmarkAnalyze/j=8 \t 1\t13000000000 ns/op\t 0.970 speedup-vs-serial\t 1.000 gomaxprocs\n"}`
	results, err := ParseTestJSON(strings.NewReader(oneCore))
	if err != nil {
		t.Fatal(err)
	}
	verdicts, ok := Check(results, []Floor{analyzeFloor})
	if !ok {
		t.Fatalf("1-core run must pass the clamped floor: %+v", verdicts)
	}
	if math.Abs(verdicts[0].Effective-0.8) > 1e-9 {
		t.Errorf("effective floor = %v, want clamp minimum 0.8", verdicts[0].Effective)
	}
	// A genuine regression — parallel catastrophically slower than
	// serial — still fails even on one core.
	regressed := strings.Replace(oneCore, "0.970", "0.500", 1)
	results, err = ParseTestJSON(strings.NewReader(regressed))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Check(results, []Floor{analyzeFloor}); ok {
		t.Fatal("0.5x speedup must fail even with the 1-core clamp")
	}
}

// TestCheckGatesEveryLine: a stream recorded under -cpu 1,2 -count 2
// holds four lines of one benchmark, and each is gated against the floor
// clamped by its own gomaxprocs — a miss on any line fails the gate, also
// when later lines of the same name pass.
func TestCheckGatesEveryLine(t *testing.T) {
	floor := Floor{Benchmark: "BenchmarkMeasureThroughput/j=8", Metric: "flows/s",
		Value: 25000, PerCore: 3125, Min: 15000, FullAtProcs: 8}
	line := func(suffix, flows, procs string) string {
		return "BenchmarkMeasureThroughput/j=8" + suffix + " \t 1\t5000000000 ns/op\t " + flows + " flows/s\t " + procs + " gomaxprocs\n"
	}
	stream := func(lines ...string) string {
		var b strings.Builder
		for _, l := range lines {
			ev, err := json.Marshal(testEvent{Action: "output", Output: l})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(ev, '\n'))
		}
		return b.String()
	}
	pass := stream(line("", "90000", "1"), line("", "91000", "1"), line("-2", "120000", "2"), line("-2", "121000", "2"))
	results, err := ParseTestJSON(strings.NewReader(pass))
	if err != nil {
		t.Fatal(err)
	}
	verdicts, ok := Check(results, []Floor{floor})
	if !ok || len(verdicts) != 4 {
		t.Fatalf("every line above its floor: ok %v, %d verdicts, want true and 4", ok, len(verdicts))
	}
	if verdicts[0].Effective != 15000 || verdicts[2].Effective != 15000 || verdicts[2].Result.Procs != 2 {
		t.Errorf("verdicts not clamped per line: %v", verdicts)
	}
	// The first -count run at one proc misses its floor; the lines after
	// it pass and must not hide it.
	fail := stream(line("", "9000", "1"), line("", "91000", "1"), line("-2", "120000", "2"), line("-2", "121000", "2"))
	results, err = ParseTestJSON(strings.NewReader(fail))
	if err != nil {
		t.Fatal(err)
	}
	verdicts, ok = Check(results, []Floor{floor})
	if ok || verdicts[0].OK || !verdicts[1].OK {
		t.Fatalf("a missed first line must fail the gate alone: ok %v, %v", ok, verdicts)
	}
}

func TestMatchFloors(t *testing.T) {
	floors := []Floor{
		{Benchmark: "BenchmarkAnalyze/j=8", Metric: "speedup-vs-serial", Value: 4},
		{Benchmark: "BenchmarkMeasureThroughput/j=8", Metric: "flows/s", Value: 25000},
	}
	got, err := MatchFloors(floors, "BenchmarkMeasureThroughput")
	if err != nil || len(got) != 1 || got[0].Metric != "flows/s" {
		t.Fatalf("MatchFloors = %+v, %v", got, err)
	}
	if all, err := MatchFloors(floors, ""); err != nil || len(all) != 2 {
		t.Fatalf("empty pattern must select all floors, got %+v, %v", all, err)
	}
	if _, err := MatchFloors(floors, "BenchmarkNope"); err == nil {
		t.Fatal("pattern matching no floor must be an error")
	}
	if _, err := MatchFloors(floors, "("); err == nil {
		t.Fatal("invalid regexp must be an error")
	}
}

func TestLoadFloorsValidation(t *testing.T) {
	good := `[{"benchmark":"B","metric":"m","floor":2.5,"floor_per_core":0.5,"floor_min":0.8,"note":"n"}]`
	floors, err := LoadFloors(strings.NewReader(good))
	if err != nil || len(floors) != 1 || floors[0].Value != 2.5 {
		t.Fatalf("LoadFloors(good) = %+v, %v", floors, err)
	}
	for _, bad := range []string{
		`[{"metric":"m","floor":1}]`,                  // no benchmark
		`[{"benchmark":"B","floor":1}]`,               // no metric
		`[{"benchmark":"B","metric":"m"}]`,            // no floor
		`{"benchmark":"B","metric":"m"}`,              // object, not array
		`[{"benchmark":"B","metric":"m","floor":-1}]`, // negative
	} {
		if _, err := LoadFloors(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadFloors(%s) accepted invalid input", bad)
		}
	}
}
