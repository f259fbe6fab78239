package hbbtvlab_test

import (
	"context"
	"fmt"
	"os"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// ExampleNewStudy shows the full workflow: build the world, run the
// Section IV-B funnel, execute the five measurement runs, analyze, and
// render the paper's tables. (Compile-checked; run any example under
// ./examples for live output.)
func ExampleNewStudy() {
	ctx := context.Background()
	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 0.05})
	funnel, err := study.SelectChannels()
	if err != nil {
		panic(err)
	}
	fmt.Printf("analyzing %d channels\n", funnel.FinalCount())

	dataset, err := study.Execute(ctx, hbbtvlab.Plan{})
	if err != nil {
		panic(err)
	}
	results, err := hbbtvlab.AnalyzeContext(ctx, dataset, hbbtvlab.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	_ = hbbtvlab.RenderAll(os.Stdout, results)
}

// ExampleOptions_runs narrows the campaign to a single measurement run
// and saves the dataset as a snapshot for later offline analysis
// (hbbtv-analyze -in reads it).
func ExampleOptions_runs() {
	var red []core.RunSpec
	for _, spec := range core.DefaultRuns() {
		if spec.Name == store.RunRed {
			red = append(red, spec)
		}
	}
	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 0.05, Runs: red})
	ds, err := study.Execute(context.Background(), hbbtvlab.Plan{})
	if err != nil {
		panic(err)
	}
	f, err := os.CreateTemp("", "hbbtv-*.snap")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	if err := store.Save(f, ds, store.FormatSnapshot); err != nil {
		panic(err)
	}
	_ = f.Close()
}
