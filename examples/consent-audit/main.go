// Consent audit: the Section VI workflow — screenshot annotation, notice
// styling inventory, interaction options, and the dark-pattern findings.
//
// The example drives the Blue measurement run (the button most channels
// reserve for privacy settings), annotates every screenshot with the
// paper's codebook, and reports how the twelve notice stylings nudge
// viewers: the cursor always starts on "Accept", decline options hide on
// deeper layers, and checkboxes come pre-ticked.
//
// Run with:
//
//	go run ./examples/consent-audit
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
)

func main() {
	study := hbbtvlab.NewStudy(hbbtvlab.Options{
		Seed:       11,
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

	fmt.Println("=== Overlay types per run (Table IV) ===")
	if err := hbbtvlab.RenderTableIV(os.Stdout, res); err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Println("=== Privacy-information prevalence (Table V) ===")
	if err := hbbtvlab.RenderTableV(os.Stdout, res); err != nil {
		panic(err)
	}

	cn := res.Consent
	fmt.Printf("\n%d channels showed a consent notice or policy at least once.\n",
		cn.ChannelsWithPrivacy)

	fmt.Println("\n=== Notice stylings and their interaction options ===")
	for _, s := range cn.Styles {
		brand := s.Brand
		if brand == "" {
			brand = "(unbranded shared banner)"
		}
		var opts []string
		for _, r := range s.FirstLayerRoles {
			opts = append(opts, string(r))
		}
		flags := ""
		if s.Modal {
			flags += " modal"
		}
		if s.CategorySelection {
			flags += " category-choice-on-layer-1"
		}
		if s.PreTicked > 0 {
			flags += fmt.Sprintf(" pre-ticked=%d", s.PreTicked)
		}
		fmt.Printf("  style %2d %-36s layer1: %s%s\n",
			s.StyleID, brand, strings.Join(opts, " / "), flags)
		if s.DefaultRole == appmodel.RoleAcceptAll {
			fmt.Printf("           cursor parks on ACCEPT (highlighted: %v)\n", s.DefaultHighlighted)
		}
	}

	n := cn.Nudging
	fmt.Printf("\n=== Dark-pattern summary ===\n")
	fmt.Printf("  %d/%d stylings default-focus the Accept button\n", n.DefaultIsAccept, n.Styles)
	fmt.Printf("  %d highlight it visually on top\n", n.DefaultHighlighted)
	fmt.Printf("  %d offer decline/only-necessary on layer 1 (the rest hide it deeper)\n", n.DeclineOnFirstLayer)
	fmt.Printf("  %d use pre-ticked checkboxes (not valid consent per ECJ Planet49)\n", n.WithPreTicked)
	fmt.Printf("  pointers to privacy info on %d channels, %d of them obscured\n",
		cn.Pointers.Channels, cn.Pointers.Obscured)
}
