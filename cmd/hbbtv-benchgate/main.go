// Command hbbtv-benchgate fails CI when a committed benchmark floor is
// not met. It parses the test2json stream `make bench-analyze` records
// (BENCH_analyze.json), extracts the reported metrics, and checks them
// against the floors committed in BENCH_floor.json — clamping scaling
// floors by the gomaxprocs the benchmark itself reported, so a small CI
// runner is held to what its cores can express rather than to the
// 8-core target.
//
// Usage:
//
//	hbbtv-benchgate [-bench BENCH_analyze.json] [-floor BENCH_floor.json] [-match REGEXP]
//
// The floor file is shared by every bench target; -match restricts the
// gate to the floors whose benchmark name matches, so `make bench-analyze`
// and `make bench-measure` each check their own stream against their own
// floors without tripping over the other's absent benchmarks.
//
// Every result line is gated: a stream recorded under -cpu 1,2 or -count N
// holds several lines per benchmark, and each is checked against the
// floor clamped by its own gomaxprocs. Exit status 0 when every selected
// floor passes on every line, 1 on any miss or parse error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hbbtvlab/hbbtvlab/internal/benchgate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hbbtv-benchgate", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCH_analyze.json", "test2json benchmark stream to check")
	floorPath := fs.String("floor", "BENCH_floor.json", "committed floor file")
	match := fs.String("match", "", "regexp selecting which floors to check (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ff, err := os.Open(*floorPath)
	if err != nil {
		return err
	}
	defer ff.Close()
	floors, err := benchgate.LoadFloors(ff)
	if err != nil {
		return err
	}
	if floors, err = benchgate.MatchFloors(floors, *match); err != nil {
		return err
	}

	bf, err := os.Open(*benchPath)
	if err != nil {
		return err
	}
	defer bf.Close()
	results, err := benchgate.ParseTestJSON(bf)
	if err != nil {
		return err
	}

	verdicts, ok := benchgate.Check(results, floors)
	for _, v := range verdicts {
		fmt.Fprintln(out, v)
	}
	if !ok {
		return fmt.Errorf("%s: benchmark floor not met", *benchPath)
	}
	fmt.Fprintf(out, "benchgate: %d floor(s) met by %d result line(s)\n", len(floors), len(verdicts))
	return nil
}
