// Command hbbtv-trace summarizes the deterministic span trace embedded
// in a dataset measured with -telemetry: where the campaign's virtual
// time went, phase by phase. The trace is recorded on the virtual clock
// (see internal/telemetry), so every number printed here is identical
// for any -j worker count and for a fleet campaign recombined with
// hbbtv-merge.
//
// Usage:
//
//	hbbtv-trace [-chrome out.json] [-top N] [-notes N] dataset
//
// The summary covers:
//
//   - the per-phase breakdown: span count, total and mean virtual
//     duration per span kind (campaign, run, visit, attempt, probe,
//     tune, ait, app, flow-burst, merge);
//   - per-channel visit duration percentiles (p50/p90/p99/max) and the
//     -top slowest channel visits;
//   - the slowest visit's critical path — its attempt/tune/ait/app/
//     probe/flow-burst subtree, indented;
//   - a bounded fault/retry timeline assembled from span annotations;
//   - the hour-of-day activity histogram of visit starts — the paper's
//     daypart lens (tracking behaves differently from 5 PM to 6 AM).
//
// -chrome exports the full trace as Chrome trace-event JSON: one
// complete "X" event per span (pid 1, tid = shard slot) plus instant
// events for annotations, loadable in Perfetto or chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hbbtv-trace", flag.ContinueOnError)
	fs.SetOutput(w)
	chrome := fs.String("chrome", "", "write the trace as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	top := fs.Int("top", 5, "how many of the slowest channel visits to list")
	notes := fs.Int("notes", 20, "how many fault/retry annotations the timeline shows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hbbtv-trace [-chrome out.json] [-top N] [-notes N] dataset")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	ds, err := store.Load(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("load %s: %w", fs.Arg(0), err)
	}
	tr := ds.Trace
	if tr == nil || len(tr.Spans) == 0 {
		return fmt.Errorf("%s carries no span trace (measure it with -telemetry)", fs.Arg(0))
	}

	if *chrome != "" {
		if err := writeChrome(*chrome, tr); err != nil {
			return fmt.Errorf("chrome export: %w", err)
		}
		fmt.Fprintf(w, "chrome trace: %d spans written to %s\n", len(tr.Spans), *chrome)
	}

	summarize(w, tr, *top, *notes)
	return nil
}

// spanKindOrder fixes the phase-breakdown row order, outermost first —
// iteration over a map would not be deterministic, and the golden
// summary test pins this output byte for byte.
var spanKindOrder = []telemetry.SpanKind{
	telemetry.SpanCampaign, telemetry.SpanRun, telemetry.SpanVisit,
	telemetry.SpanAttempt, telemetry.SpanProbe, telemetry.SpanTune,
	telemetry.SpanAIT, telemetry.SpanApp, telemetry.SpanBurst,
	telemetry.SpanMerge,
}

func summarize(w io.Writer, tr *telemetry.Trace, top, noteCap int) {
	shards := map[int]bool{}
	for i := range tr.Spans {
		shards[tr.Spans[i].Shard] = true
	}
	fmt.Fprintf(w, "trace: %d spans across %d shard slot(s)", len(tr.Spans), len(shards))
	if d := tr.DroppedSpans(); d > 0 {
		fmt.Fprintf(w, ", %d dropped at capacity", d)
	}
	fmt.Fprintln(w)

	phaseBreakdown(w, tr)
	visits := visitSpans(tr)
	visitPercentiles(w, visits)
	slowestVisits(w, visits, top)
	criticalPath(w, tr, visits)
	noteTimeline(w, tr, noteCap)
	hourHistogram(w, visits)
}

// phaseBreakdown prints count, total, and mean virtual duration per span
// kind, in fixed outermost-first order.
func phaseBreakdown(w io.Writer, tr *telemetry.Trace) {
	type agg struct {
		count int
		total time.Duration
	}
	byKind := map[telemetry.SpanKind]*agg{}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		a := byKind[s.Kind]
		if a == nil {
			a = &agg{}
			byKind[s.Kind] = a
		}
		a.count++
		a.total += s.Duration()
	}
	fmt.Fprintln(w, "\nphase breakdown (virtual time):")
	for _, kind := range spanKindOrder {
		a := byKind[kind]
		if a == nil {
			continue
		}
		fmt.Fprintf(w, "  %-11s %6d spans  total %-14s mean %s\n",
			kind, a.count, a.total, (a.total / time.Duration(a.count)).Round(time.Millisecond))
		delete(byKind, kind)
	}
	// Kinds this command predates still get a row, sorted by name.
	var rest []telemetry.SpanKind
	for kind := range byKind {
		rest = append(rest, kind)
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a] < rest[b] })
	for _, kind := range rest {
		a := byKind[kind]
		fmt.Fprintf(w, "  %-11s %6d spans  total %-14s mean %s\n",
			kind, a.count, a.total, (a.total / time.Duration(a.count)).Round(time.Millisecond))
	}
}

// visitSpans returns the channel-visit spans in canonical order.
func visitSpans(tr *telemetry.Trace) []telemetry.Span {
	var visits []telemetry.Span
	for i := range tr.Spans {
		if tr.Spans[i].Kind == telemetry.SpanVisit {
			visits = append(visits, tr.Spans[i])
		}
	}
	return visits
}

// percentile picks the nearest-rank pct-th percentile of the sorted
// durations — integer arithmetic, no float rounding to drift.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*pct + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

func visitPercentiles(w io.Writer, visits []telemetry.Span) {
	if len(visits) == 0 {
		return
	}
	durs := make([]time.Duration, len(visits))
	for i := range visits {
		durs[i] = visits[i].Duration()
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	fmt.Fprintf(w, "\nvisit durations (%d visits): p50 %s  p90 %s  p99 %s  max %s\n",
		len(durs), percentile(durs, 50), percentile(durs, 90),
		percentile(durs, 99), durs[len(durs)-1])
}

func slowestVisits(w io.Writer, visits []telemetry.Span, top int) {
	if len(visits) == 0 || top <= 0 {
		return
	}
	ranked := make([]telemetry.Span, len(visits))
	copy(ranked, visits)
	// Duration descending; canonical (Start, Shard, ID) tiebreak keeps
	// the ranking deterministic when durations collide.
	sort.SliceStable(ranked, func(a, b int) bool {
		return ranked[a].Duration() > ranked[b].Duration()
	})
	if top > len(ranked) {
		top = len(ranked)
	}
	fmt.Fprintf(w, "\nslowest %d visit(s):\n", top)
	for _, s := range ranked[:top] {
		line := fmt.Sprintf("  %-20s %-12s shard %d", s.Name, s.Duration(), s.Shard)
		if len(s.Notes) > 0 {
			line += fmt.Sprintf("  (%d annotation(s))", len(s.Notes))
		}
		fmt.Fprintln(w, line)
	}
}

// criticalPath prints the slowest visit's subtree: every descendant span
// on the same shard, depth-first in start order — the tune/ait/app/probe
// chain that made the visit slow.
func criticalPath(w io.Writer, tr *telemetry.Trace, visits []telemetry.Span) {
	if len(visits) == 0 {
		return
	}
	slowest := visits[0]
	for _, s := range visits[1:] {
		if s.Duration() > slowest.Duration() {
			slowest = s
		}
	}
	// Children index for the slowest visit's shard. Parent links never
	// cross shards, so one shard's spans are a closed forest.
	children := map[uint64][]telemetry.Span{}
	for i := range tr.Spans {
		s := tr.Spans[i]
		if s.Shard == slowest.Shard && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	fmt.Fprintf(w, "\ncritical path of the slowest visit (%s, shard %d, %s):\n",
		slowest.Name, slowest.Shard, slowest.Duration())
	var walk func(s telemetry.Span, depth int)
	walk = func(s telemetry.Span, depth int) {
		line := fmt.Sprintf("  %s%-11s %-20s %s", strings.Repeat("  ", depth), s.Kind, s.Name, s.Duration())
		if s.Attempt > 0 {
			line += fmt.Sprintf("  attempt=%d", s.Attempt)
		}
		if s.Flows > 0 {
			line += fmt.Sprintf("  flows=%d", s.Flows)
		}
		fmt.Fprintln(w, line)
		for _, n := range s.Notes {
			fmt.Fprintf(w, "  %s! %s %s\n", strings.Repeat("  ", depth+1), n.Kind, n.Detail)
		}
		kids := children[s.ID]
		telemetry.SortSpans(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(slowest, 0)
}

// noteTimeline lists the trace's span annotations — fault injections,
// retries, channel failures, quarantines, recovered panics — in
// virtual-time order, bounded to keep degraded campaigns readable.
func noteTimeline(w io.Writer, tr *telemetry.Trace, limit int) {
	type entry struct {
		note  telemetry.SpanNote
		shard int
		id    uint64
		kind  telemetry.SpanKind
		name  string
	}
	var entries []entry
	for i := range tr.Spans {
		s := &tr.Spans[i]
		for _, n := range s.Notes {
			entries = append(entries, entry{note: n, shard: s.Shard, id: s.ID, kind: s.Kind, name: s.Name})
		}
	}
	if len(entries) == 0 {
		return
	}
	sort.SliceStable(entries, func(a, b int) bool {
		ea, eb := &entries[a], &entries[b]
		if !ea.note.Time.Equal(eb.note.Time) {
			return ea.note.Time.Before(eb.note.Time)
		}
		if ea.shard != eb.shard {
			return ea.shard < eb.shard
		}
		return ea.id < eb.id
	})
	fmt.Fprintf(w, "\nfault/retry timeline (%d annotation(s)):\n", len(entries))
	shown := len(entries)
	if limit > 0 && shown > limit {
		shown = limit
	}
	for _, e := range entries[:shown] {
		fmt.Fprintf(w, "  %s  shard %d  %-10s on %s %s\n",
			e.note.Time.UTC().Format("2006-01-02 15:04:05"), e.shard, e.note.Kind, e.kind, e.name)
	}
	if shown < len(entries) {
		fmt.Fprintf(w, "  ... and %d more (raise -notes)\n", len(entries)-shown)
	}
}

// hourHistogram buckets visit starts by hour of (virtual) day — the
// paper's daypart lens: HbbTV tracking differs between the 5 PM prime
// time and the 6 AM morning slot, and so does where campaign time goes.
func hourHistogram(w io.Writer, visits []telemetry.Span) {
	if len(visits) == 0 {
		return
	}
	var hours [24]int
	maxN := 0
	for i := range visits {
		h := visits[i].Start.UTC().Hour()
		hours[h]++
		if hours[h] > maxN {
			maxN = hours[h]
		}
	}
	fmt.Fprintln(w, "\nvisits by hour of day (virtual clock, UTC):")
	for h := 0; h < 24; h++ {
		if hours[h] == 0 {
			continue
		}
		bar := (hours[h]*40 + maxN - 1) / maxN
		fmt.Fprintf(w, "  %02d:00 %-40s %d\n", h, strings.Repeat("#", bar), hours[h])
	}
}

// chromeEvent is one Chrome trace-event ("X" complete span, "i" instant
// annotation). Timestamps and durations are microseconds relative to the
// trace's earliest span start.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format, the
// one both Perfetto and chrome://tracing load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func writeChrome(path string, tr *telemetry.Trace) error {
	base := tr.Spans[0].Start
	for i := range tr.Spans {
		if tr.Spans[i].Start.Before(base) {
			base = tr.Spans[i].Start
		}
	}
	micros := func(t time.Time) float64 { return float64(t.Sub(base)) / float64(time.Microsecond) }
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(tr.Spans))}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		name := string(s.Kind)
		if s.Name != "" {
			name += " " + s.Name
		}
		ev := chromeEvent{
			Name: name, Cat: string(s.Kind), Ph: "X",
			Ts: micros(s.Start), Dur: micros(s.End) - micros(s.Start),
			Pid: 1, Tid: s.Shard,
		}
		if s.Attempt > 0 || s.Flows > 0 {
			ev.Args = map[string]any{}
			if s.Attempt > 0 {
				ev.Args["attempt"] = s.Attempt
			}
			if s.Flows > 0 {
				ev.Args["flows"] = s.Flows
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
		for _, n := range s.Notes {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: string(n.Kind), Cat: "note", Ph: "i",
				Ts: micros(n.Time), Pid: 1, Tid: s.Shard, Scope: "t",
				Args: map[string]any{"detail": n.Detail, "span": s.ID},
			})
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
