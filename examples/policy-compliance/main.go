// Policy compliance: the Section VII pipeline plus the paper's titular
// finding — a children's channel group whose privacy policy limits ad
// personalization and profiling to "5 pm to 6 am" while its channels track
// outside that window.
//
// The example collects privacy policies from recorded traffic, runs the
// full pipeline (extraction, language detection, classification, SHA-1
// dedup, SimHash grouping, MAPP annotation, GDPR dictionary), and then
// cross-checks the declared time window against the observed tracking.
//
// Run with:
//
//	go run ./examples/policy-compliance
package main

import (
	"context"
	"fmt"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/policy"
	"github.com/hbbtvlab/hbbtvlab/internal/report"
)

func main() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{
		Seed:       23,
		Scale:      0.2,
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
	p := res.Policies

	fmt.Println("=== Policy corpus ===")
	fmt.Printf("found %s policy documents in traffic -> %d unique after SHA-1 dedup\n",
		report.Int(p.Corpus.Occurrences), len(p.Corpus.Unique))
	fmt.Printf("languages: %v; SimHash near-duplicate groups: %d\n",
		p.Corpus.ByLanguage, len(p.Corpus.NearDuplicateGroups))
	fmt.Printf("mention HbbTV: %d; point to blue-button settings: %d; cite TTDSG/TDDDG: %d\n",
		p.HbbTVMentions, p.BlueButtonMentions, p.TDDDGMentions)

	fmt.Println("\n=== GDPR data-subject rights coverage ===")
	for _, art := range policy.RightsArticles {
		fmt.Printf("  %-28s %d/%d policies\n", art, p.RightsCoverage[art], len(p.Corpus.Unique))
	}

	fmt.Println("\n=== Declared practices vs observations ===")
	fmt.Printf("declare third-party sharing: %d; invoke legitimate interests: %d\n",
		p.ThirdPartyDeclaring, p.LegitimateInterest)
	fmt.Printf("frame targeted ads as opt-out (needs opt-in under GDPR): %d\n",
		p.OptOutContradictions)

	if !p.AdWindowDeclared {
		fmt.Println("\nno policy declared a profiling time window")
		return
	}
	fmt.Printf("\n=== The 5 pm to 6 am case ===\n")
	fmt.Printf("a children's group policy permits ad personalization only %02d:00-%02d:00\n",
		p.AdWindow.StartHour, p.AdWindow.EndHour)
	fmt.Printf("tracking requests observed OUTSIDE that window: %s\n",
		report.Int(len(p.WindowViolations)))
	byChannel := map[string]int{}
	for _, v := range p.WindowViolations {
		byChannel[v.Channel]++
	}
	for ch, n := range byChannel {
		fmt.Printf("  %-22s %s out-of-window tracking requests\n", ch, report.Int(n))
	}
	fmt.Println("=> the channels' behavior contradicts their own policy.")
}
