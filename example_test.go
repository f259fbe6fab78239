package hbbtvlab_test

import (
	"fmt"
	"os"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// ExampleNewStudy shows the full workflow: build the world, run the
// Section IV-B funnel, execute the five measurement runs, analyze, and
// render the paper's tables. (Compile-checked; run any example under
// ./examples for live output.)
func ExampleNewStudy() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 0.05})
	funnel, err := study.SelectChannels()
	if err != nil {
		panic(err)
	}
	fmt.Printf("analyzing %d channels\n", funnel.FinalCount())

	dataset, err := study.ExecuteRuns()
	if err != nil {
		panic(err)
	}
	results := hbbtvlab.Analyze(dataset)
	_ = hbbtvlab.RenderAll(os.Stdout, results)
}

// ExampleStudy_Run executes a single measurement run and saves the dataset
// as a snapshot for later offline analysis (hbbtv-analyze -in reads it).
func ExampleStudy_Run() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{Seed: 1, Scale: 0.05})
	red, err := study.Run(store.RunRed)
	if err != nil {
		panic(err)
	}
	f, err := os.CreateTemp("", "hbbtv-*.snap")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	ds := &store.Dataset{Runs: []*store.RunData{red}}
	if err := store.Save(f, ds, store.FormatSnapshot); err != nil {
		panic(err)
	}
	_ = f.Close()
}
