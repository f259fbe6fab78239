// Command hbbtv-report regenerates every table and figure of the paper's
// evaluation in one pass: the channel funnel, Tables I-V, Figures 5-8, and
// the section-level findings — the report EXPERIMENTS.md is built from.
//
// Usage:
//
//	hbbtv-report [-seed N] [-scale F] [-o report.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hbbtv-report", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "world seed")
	scale := fs.Float64("scale", 1.0, "world scale (1.0 = paper scale)")
	outPath := fs.String("o", "", "write the report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *outPath == "" {
		return writeReport(os.Stdout, *seed, *scale)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := writeReport(f, *seed, *scale); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport measures the study and writes the full report to w.
func writeReport(w io.Writer, seed int64, scale float64) error {
	start := time.Now()
	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: seed, Scale: scale})
	funnel, err := study.SelectChannels()
	if err != nil {
		return err
	}
	ds, err := study.ExecuteRuns()
	if err != nil {
		return err
	}
	res := hbbtvlab.Analyze(ds)

	// The timing goes to stderr so the report itself is a byte-stable
	// oracle that CI regenerates and diffs.
	fmt.Fprintf(os.Stderr, "hbbtv-report: generated in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "hbbtvlab full report (seed=%d scale=%.2f)\n\n", seed, scale)
	if err := hbbtvlab.RenderFunnel(w, funnel); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return hbbtvlab.RenderAll(w, res)
}
