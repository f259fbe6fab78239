package telemetry

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// steppingClock yields a virtual clock advancing by step on every read —
// convenient for spans, which need distinct start/end stamps.
func steppingClock(base time.Time, step time.Duration) func() time.Time {
	now := base
	return func() time.Time {
		t := now
		now = now.Add(step)
		return t
	}
}

func TestSpanNestingAndParentage(t *testing.T) {
	r := New(Options{Shards: 1})
	base := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	sh := r.Shard(0, steppingClock(base, time.Second))

	campaign := sh.StartSpan(SpanCampaign, "runs=1")
	run := sh.StartSpan(SpanRun, "General")
	visit := sh.StartSpan(SpanVisit, "ch1")
	visit.End()
	run.End()
	campaign.End()

	tr := r.Trace()
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	// Canonical order is by start: campaign first, then run, then visit.
	c, ru, v := tr.Spans[0], tr.Spans[1], tr.Spans[2]
	if c.Kind != SpanCampaign || ru.Kind != SpanRun || v.Kind != SpanVisit {
		t.Fatalf("unexpected kinds: %s %s %s", c.Kind, ru.Kind, v.Kind)
	}
	if c.ID != 1 || c.Parent != 0 {
		t.Fatalf("campaign id/parent = %d/%d, want 1/0", c.ID, c.Parent)
	}
	if ru.Parent != c.ID || v.Parent != ru.ID {
		t.Fatalf("parent chain broken: run.Parent=%d visit.Parent=%d", ru.Parent, v.Parent)
	}
	if !v.End.After(v.Start) {
		t.Fatalf("visit has no extent: %v .. %v", v.Start, v.End)
	}
	if c.Shard != 0 {
		t.Fatalf("shard = %d, want 0", c.Shard)
	}
}

func TestControllerSpansReportShardMinusOne(t *testing.T) {
	r := New(Options{Shards: 2})
	ctl := r.Controller(fixedNow(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)))
	s := ctl.StartSpan(SpanMerge, "General")
	s.End()
	tr := r.Trace()
	if len(tr.Spans) != 1 || tr.Spans[0].Shard != -1 {
		t.Fatalf("controller span = %+v, want Shard -1", tr.Spans)
	}
}

// TestSpanDetached pins the flow-burst shape: a detached span records the
// innermost open span as parent without nesting, so it may end after its
// parent did, and both boundaries are caller-supplied timestamps.
func TestSpanDetached(t *testing.T) {
	r := New(Options{Shards: 1})
	base := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	sh := r.Shard(0, steppingClock(base, time.Second))

	attempt := sh.StartSpan(SpanAttempt, "ch1")
	burst := sh.OpenSpanAt(SpanBurst, "ch1", base.Add(100*time.Millisecond))
	burst.AddFlow()
	burst.AddFlow()
	// The detached burst is not on the stack: a nested span opened now
	// must parent on the attempt, not the burst.
	probe := sh.StartSpan(SpanProbe, "ch1")
	probe.End()
	attempt.End()
	burst.EndAt(base.Add(3 * time.Second)) // outlives its parent
	tr := r.Trace()
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	byKind := map[SpanKind]Span{}
	for _, s := range tr.Spans {
		byKind[s.Kind] = s
	}
	a, b, p := byKind[SpanAttempt], byKind[SpanBurst], byKind[SpanProbe]
	if b.Parent != a.ID || p.Parent != a.ID {
		t.Fatalf("burst.Parent=%d probe.Parent=%d, want both %d", b.Parent, p.Parent, a.ID)
	}
	if b.Flows != 2 {
		t.Fatalf("burst flows = %d, want 2", b.Flows)
	}
	if !b.Start.Equal(base.Add(100*time.Millisecond)) || !b.End.Equal(base.Add(3*time.Second)) {
		t.Fatalf("burst boundaries not the supplied stamps: %v .. %v", b.Start, b.End)
	}
	if b.End.Before(a.End) {
		t.Fatal("test premise broken: burst should outlive the attempt")
	}
}

func TestSpanAnnotationsAndAttrs(t *testing.T) {
	r := New(Options{Shards: 1})
	base := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	sh := r.Shard(0, steppingClock(base, time.Second))

	visit := sh.StartSpan(SpanVisit, "ch1")
	attempt := sh.StartSpan(SpanAttempt, "ch1")
	attempt.SetAttempt(2)
	sh.AnnotateSpan(EventFault, "http ch1") // innermost open span = attempt
	attempt.End()
	sh.AnnotateSpan(EventRetry, "ch1 attempt=2") // now the visit
	visit.SetName("ch1-renamed")
	visit.End()

	tr := r.Trace()
	byKind := map[SpanKind]Span{}
	for _, s := range tr.Spans {
		byKind[s.Kind] = s
	}
	a := byKind[SpanAttempt]
	if a.Attempt != 2 {
		t.Fatalf("attempt attr = %d, want 2", a.Attempt)
	}
	if len(a.Notes) != 1 || a.Notes[0].Kind != EventFault || a.Notes[0].Detail != "http ch1" {
		t.Fatalf("attempt notes = %+v", a.Notes)
	}
	v := byKind[SpanVisit]
	if v.Name != "ch1-renamed" {
		t.Fatalf("visit name = %q", v.Name)
	}
	if len(v.Notes) != 1 || v.Notes[0].Kind != EventRetry {
		t.Fatalf("visit notes = %+v", v.Notes)
	}
}

// TestSpanCapDropsNewest pins the capacity policy: the span store keeps
// the oldest spans and drops new ones, so the retained prefix stays
// parent-consistent.
func TestSpanCapDropsNewest(t *testing.T) {
	r := New(Options{Shards: 1, SpanCap: 3})
	base := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	sh := r.Shard(0, steppingClock(base, time.Second))
	for i := 0; i < 5; i++ {
		sh.StartSpan(SpanVisit, "ch").End()
	}
	tr := r.Trace()
	if len(tr.Spans) != 3 {
		t.Fatalf("kept %d spans, want 3", len(tr.Spans))
	}
	for i, s := range tr.Spans {
		if s.ID != uint64(i+1) {
			t.Fatalf("span %d has ID %d — survivors must be the oldest (IDs 1..3)", i, s.ID)
		}
	}
	if got := tr.DroppedSpans(); got != 2 {
		t.Fatalf("DroppedSpans = %d, want 2", got)
	}
	if len(tr.Dropped) != 1 || tr.Dropped[0].Shard != 0 || tr.Dropped[0].Dropped != 2 {
		t.Fatalf("Dropped = %+v", tr.Dropped)
	}
}

func TestTraceExcludesOpenSpans(t *testing.T) {
	r := New(Options{Shards: 1})
	sh := r.Shard(0, fixedNow(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)))
	open := sh.StartSpan(SpanRun, "General")
	if tr := r.Trace(); len(tr.Spans) != 0 {
		t.Fatalf("open span leaked into the trace: %+v", tr.Spans)
	}
	open.End()
	if tr := r.Trace(); len(tr.Spans) != 1 {
		t.Fatalf("ended span missing from the trace")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *Registry
	if r.Trace() != nil {
		t.Fatal("nil registry Trace != nil")
	}
	if r.RecentSpans(10) != nil {
		t.Fatal("nil registry RecentSpans != nil")
	}
	var sh *Shard
	// None of these may panic, and the zero SpanRef is inert.
	span := sh.StartSpan(SpanVisit, "ch")
	if span.Active() {
		t.Fatal("nil shard returned an active span")
	}
	span.SetName("x")
	span.SetAttempt(1)
	span.AddFlow()
	span.Annotate(time.Time{}, EventFault, "f")
	span.End()
	span.EndAt(time.Time{})
	sh.OpenSpanAt(SpanBurst, "ch", time.Time{}).End()
	sh.AnnotateSpan(EventRetry, "r")
	var zero SpanRef
	zero.End()
	var tr *Trace
	if tr.DroppedSpans() != 0 {
		t.Fatal("nil trace has drops")
	}
}

func TestSortSpansCanonical(t *testing.T) {
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	spans := []Span{
		{ID: 2, Shard: 1, Start: base.Add(time.Second)},
		{ID: 1, Shard: 1, Start: base},
		{ID: 9, Shard: 0, Start: base},
		{ID: 3, Shard: 0, Start: base.Add(time.Second)},
		{ID: 8, Shard: 0, Start: base},
	}
	SortSpans(spans)
	type key struct {
		id    uint64
		shard int
	}
	want := []key{{8, 0}, {9, 0}, {1, 1}, {3, 0}, {2, 1}}
	for i, s := range spans {
		if (key{s.ID, s.Shard}) != want[i] {
			t.Fatalf("position %d = ID %d shard %d, want ID %d shard %d", i, s.ID, s.Shard, want[i].id, want[i].shard)
		}
	}
}

func TestRecentSpansReturnsTail(t *testing.T) {
	r := New(Options{Shards: 1})
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	sh := r.Shard(0, steppingClock(base, time.Second))
	for i := 0; i < 5; i++ {
		sh.StartSpan(SpanVisit, "ch").End()
	}
	recent := r.RecentSpans(2)
	if len(recent) != 2 {
		t.Fatalf("got %d spans, want 2", len(recent))
	}
	if recent[0].ID != 4 || recent[1].ID != 5 {
		t.Fatalf("tail IDs = %d,%d want 4,5", recent[0].ID, recent[1].ID)
	}
}

// TestRecentSpansReadsSlotTails pins RecentSpans' contract on slots that
// completed more than n spans, in an order that is not canonical and that
// crosses a storage chunk: the result is the canonical tail of the union
// of each slot's last n completions. On a full store a call copies only
// those tails, so it allocates a few spans' worth, not the store.
func TestRecentSpansReadsSlotTails(t *testing.T) {
	const shards, n, fullShards = 3, 4, 8
	r := New(Options{Shards: shards})
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	// completed[s] is slot s's span IDs in completion order; IDs count up
	// from 1 in start order.
	completed := make([][]uint64, shards)
	for s := 0; s < shards; s++ {
		sh := r.Shard(s, steppingClock(base.Add(time.Duration(s)*time.Millisecond), time.Second))
		// A detached span that starts last but completes first: the
		// slot's newest span canonically, yet not among its last n
		// completions.
		late := base.Add(time.Hour)
		sh.OpenSpanAt(SpanBurst, "ch", late).EndAt(late)
		completed[s] = append(completed[s], 1)
		// The outer span starts before and completes after every inner one.
		outer := sh.StartSpan(SpanRun, "run")
		for i := 0; i < spanChunk+s; i++ {
			sh.StartSpan(SpanVisit, "ch").End()
			completed[s] = append(completed[s], uint64(i+3))
		}
		outer.End()
		completed[s] = append(completed[s], 2)
	}

	type key struct {
		shard int
		id    uint64
	}
	byKey := make(map[key]Span)
	for _, sp := range r.Trace().Spans {
		byKey[key{sp.Shard, sp.ID}] = sp
	}
	var want []Span
	for s, ids := range completed {
		for _, id := range ids[len(ids)-n:] {
			want = append(want, byKey[key{s, id}])
		}
	}
	SortSpans(want)
	want = want[len(want)-n:]
	if got := r.RecentSpans(n); !reflect.DeepEqual(got, want) {
		t.Errorf("RecentSpans(%d) =\n%+v\nwant the canonical tail of each slot's last %d completions\n%+v", n, got, n, want)
	}

	full := New(Options{Shards: fullShards})
	for s := 0; s < fullShards; s++ {
		sh := full.Shard(s, fixedNow(base))
		for i := 0; i < DefaultSpanCap; i++ {
			sh.StartSpan(SpanVisit, "ch").End()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recent := full.RecentSpans(liveTail)
	runtime.ReadMemStats(&after)
	if len(recent) != liveTail {
		t.Fatalf("RecentSpans(%d) on a full store returned %d spans", liveTail, len(recent))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("RecentSpans(%d) on a full %d-shard store allocated %d bytes, want < 1 MB",
			liveTail, fullShards, got)
	}
}

// TestSpanAllocations pins the hot path: a plain start/end pair must not
// allocate (the freelist recycles open spans; chunk growth amortizes to
// ~1/1024 per span).
func TestSpanAllocations(t *testing.T) {
	r := New(Options{Shards: 1})
	sh := r.Shard(0, fixedNow(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)))
	// Warm the freelist and the first chunk.
	sh.StartSpan(SpanVisit, "ch").End()
	avg := testing.AllocsPerRun(2000, func() {
		sh.StartSpan(SpanVisit, "ch").End()
	})
	if avg >= 1 {
		t.Fatalf("start/end allocates %.2f objects per span, want < 1", avg)
	}
}
