// Filter-list extension: the paper's future-work proposal, implemented.
//
// "Future research could extend existing Web-based filter lists by
// (automatically) deriving additional filter rules from observed traffic
// that block trackers for HbbTV" — this example runs the measurement,
// derives Adblock-Plus rules from the heuristically detected trackers that
// the Web lists miss, prints the generated list, and quantifies the
// coverage improvement.
//
// Run with:
//
//	go run ./examples/filterlist-extension
package main

import (
	"fmt"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/report"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

func main() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{
		Seed:       31,
		Scale:      0.15,
		ProbeWatch: 30 * time.Second,
	})
	ds, err := study.ExecuteRuns()
	if err != nil {
		panic(err)
	}
	res := hbbtvlab.Analyze(ds)

	fmt.Printf("Derived %d filter rules from the observed traffic.\n\n", len(res.DerivedRules))
	fmt.Println("Top rules by evidence:")
	for i, r := range res.DerivedRules {
		if i >= 12 {
			fmt.Printf("  ... and %d more\n", len(res.DerivedRules)-i)
			break
		}
		kind := ""
		if r.Kinds&store.FlowPixel != 0 {
			kind += " pixel"
		}
		if r.Kinds&store.FlowFingerprint != 0 {
			kind += " fingerprint"
		}
		fmt.Printf("  %-28s %7s requests (%s)\n", r.Rule, report.Int(r.Requests), kind[1:])
	}

	ext := res.Extension
	fmt.Printf("\nHeuristically detected tracking requests: %s\n", report.Int(ext.TrackingRequests))
	fmt.Printf("Blocked by the Pi-hole base list alone:    %s (%s)\n",
		report.Int(ext.BlockedBefore), report.Pct(ext.CoverageBefore()))
	fmt.Printf("Blocked with the derived rules appended:   %s (%s)\n",
		report.Int(ext.BlockedAfter), report.Pct(ext.CoverageAfter()))

	fmt.Println("\nGenerated list body (first lines):")
	text := tracking.RulesText(res.DerivedRules)
	for i, line := range splitLines(text, 8) {
		_ = i
		fmt.Println("  " + line)
	}
}

func splitLines(s string, n int) []string {
	var out []string
	start := 0
	for i := 0; i < len(s) && len(out) < n; i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
