// Tracking audit: the Section V workflow on a mid-size world.
//
// Runs the five measurement runs, then audits the traffic the way the
// paper does: filter-list coverage, the tracking-pixel heuristic,
// fingerprint-script detection, the top third parties, and the ecosystem
// graph. The output demonstrates the paper's headline finding — web
// filter lists miss the HbbTV tracking ecosystem almost entirely.
//
// Run with:
//
//	go run ./examples/tracking-audit
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/report"
)

func main() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{
		Seed:       7,
		Scale:      0.15,
		ProbeWatch: 30 * time.Second,
	})
	ds, err := study.Execute(context.Background(), hbbtvlab.Plan{})
	if err != nil {
		panic(err)
	}
	res, err := hbbtvlab.AnalyzeContext(context.Background(), ds, hbbtvlab.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}

	fmt.Println("=== Filter-list coverage vs heuristics (Table III) ===")
	if err := hbbtvlab.RenderTableIII(os.Stdout, res); err != nil {
		panic(err)
	}

	var total int
	for _, row := range res.TableI {
		total += row.HTTPReq + row.HTTPSReq
	}
	var pixels int
	for _, r := range res.TableIII {
		pixels += r.TrackingPxl
	}
	fmt.Printf("\nTracking pixels account for %s of all %s requests.\n",
		report.Pct(float64(pixels)/float64(total)), report.Int(total))

	fmt.Println("\n=== Trackers per channel (Fig. 6) ===")
	fmt.Printf("mean %.2f trackers/channel (max %.0f); mean %.0f tracking requests/channel (max %.0f)\n",
		res.Fig6.Trackers.Mean, res.Fig6.Trackers.Max,
		res.Fig6.Requests.Mean, res.Fig6.Requests.Max)

	fmt.Println("\n=== Top tracking channels ===")
	type row struct {
		ch string
		n  int
	}
	var rows []row
	for ch, n := range res.Fig6.PerChannel {
		rows = append(rows, row{ch, n})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].n > rows[b].n })
	for i := 0; i < len(rows) && i < 5; i++ {
		fmt.Printf("  %-22s %s tracking requests\n", rows[i].ch, report.Int(rows[i].n))
	}

	fmt.Println("\n=== Ecosystem graph (Fig. 8) ===")
	f8 := res.Fig8
	fmt.Printf("one component: %v; %d nodes, %d edges; avg path %.2f\n",
		f8.Components == 1, f8.Nodes, f8.Edges, f8.AvgPathLength)
	for _, hub := range f8.TopNodes {
		fmt.Printf("  hub %-18s %d edges\n", hub.Node, hub.Degree)
	}
	fmt.Printf("  xiti.com degree %d (most frequent third party, included by platforms, not channels)\n",
		f8.XitiDegree)

	fmt.Println("\n=== Personal-data leakage (Section V-B) ===")
	fmt.Printf("device data leaked by %d channels to %d third parties; viewing behavior by %d channels\n",
		res.Leaks.TechnicalChannels, res.Leaks.TechnicalParties, res.Leaks.BehavioralChannels)
}
