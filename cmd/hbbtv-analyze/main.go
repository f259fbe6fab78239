// Command hbbtv-analyze runs the measurement study and prints a selected
// table or figure from the paper's evaluation. Only the analysis sections
// the selected target needs are computed (see hbbtvlab.AnalyzeContext).
//
// Usage:
//
//	hbbtv-analyze [-seed N] [-scale F] [-j N] -t table1|table2|table3|table4|table5|fig5|fig6|fig7|fig8|findings|all
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/cli"
	"github.com/hbbtvlab/hbbtvlab/internal/report"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-analyze:", err)
		os.Exit(1)
	}
}

// targetSections maps each print target to the analysis sections it
// renders; a nil entry computes everything.
var targetSections = map[string][]hbbtvlab.Section{
	"table1": {hbbtvlab.SectionTableI},
	"table2": {hbbtvlab.SectionTableII},
	"table3": {hbbtvlab.SectionTableIII},
	"table4": {hbbtvlab.SectionConsent},
	"table5": {hbbtvlab.SectionConsent},
	"fig5":   {hbbtvlab.SectionFig5},
	"fig6":   {hbbtvlab.SectionFig5, hbbtvlab.SectionFig6, hbbtvlab.SectionFig7, hbbtvlab.SectionFig8},
	"fig7":   {hbbtvlab.SectionFig5, hbbtvlab.SectionFig6, hbbtvlab.SectionFig7, hbbtvlab.SectionFig8},
	"fig8":   {hbbtvlab.SectionFig5, hbbtvlab.SectionFig6, hbbtvlab.SectionFig7, hbbtvlab.SectionFig8},
	"findings": {
		hbbtvlab.SectionLeaks, hbbtvlab.SectionCookies, hbbtvlab.SectionChildren,
		hbbtvlab.SectionConsent, hbbtvlab.SectionPolicies, hbbtvlab.SectionStats,
		hbbtvlab.SectionExtension,
	},
	"all": nil,
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hbbtv-analyze", flag.ContinueOnError)
	var study cli.Study
	var jobs cli.Jobs
	study.Register(fs)
	jobs.Register(fs, "the analysis engine")
	target := fs.String("t", "all", "what to print: table1..table5, fig5..fig8, findings, all")
	in := fs.String("in", "", "analyze a dataset saved by hbbtv-measure -snapshot (or a gzip-JSON file an earlier version wrote with -save) instead of re-measuring")
	probe := fs.Duration("probewatch", 0, "override the exploratory per-channel watch time (0 = paper's 910s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := jobs.Validate(); err != nil {
		return err
	}
	sections, ok := targetSections[*target]
	if !ok {
		return fmt.Errorf("unknown target %q", *target)
	}

	var ds *store.Dataset
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = store.Load(f)
		if err != nil {
			return err
		}
	} else {
		st, err := hbbtvlab.NewStudyChecked(hbbtvlab.Options{
			Seed: study.Seed, Scale: study.Scale, ProbeWatch: *probe,
		})
		if err != nil {
			return err
		}
		ds, err = st.ExecuteRuns()
		if err != nil {
			return err
		}
	}
	res, err := hbbtvlab.AnalyzeContext(context.Background(), ds, hbbtvlab.AnalyzeOptions{
		Parallelism: jobs.N,
		Sections:    sections,
	})
	if err != nil {
		return err
	}

	switch *target {
	case "table1":
		return hbbtvlab.RenderTableI(w, res.TableI)
	case "table2":
		return hbbtvlab.RenderTableII(w, res)
	case "table3":
		return hbbtvlab.RenderTableIII(w, res)
	case "table4":
		return hbbtvlab.RenderTableIV(w, res)
	case "table5":
		return hbbtvlab.RenderTableV(w, res)
	case "fig5":
		fmt.Fprintf(w, "cookie-using third parties: %s\n",
			report.Distribution(res.Fig5.PartyChannels, 25))
		fmt.Fprintf(w, "parties on >10 channels: %d; single-channel: %d\n",
			res.Fig5.PartiesOnMoreThan10, res.Fig5.SingleChannelParties)
		return nil
	case "fig6", "fig7", "fig8":
		return hbbtvlab.RenderFigures(w, res)
	case "findings":
		return hbbtvlab.RenderFindings(w, res)
	default: // "all"
		return hbbtvlab.RenderAll(w, res)
	}
}
