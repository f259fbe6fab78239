package telemetry

import (
	"sort"
	"sync"
	"time"
)

// This file is the span layer of the telemetry package: a deterministic
// tracer on the virtual clock and the package's one record of what a
// campaign did. Every phase of the measurement pipeline — campaign, run,
// channel visit, visit attempt, probe, tune, AIT decode, app launch, flow
// burst, merge — is recorded as an interval of *virtual* time with its
// parent span, and every happening inside a phase (an injected fault, a
// retry, a failed or quarantined channel, a recovered panic) as a note on
// the span that was running. The full tree of a campaign can therefore be
// reconstructed, summarized (cmd/hbbtv-trace), and exported to Chrome
// trace-event format.
//
// Determinism contract: spans are shard-local; IDs are per-slot sequence
// numbers, parent links never cross shards, and every timestamp comes
// from the shard's virtual clock. A trace collected after a run is
// therefore byte-identical for any worker count, and the per-shard traces
// of a fleet campaign, merged by shard slot, equal the single-process
// run's trace restricted to the shard slots. Like the telemetry snapshot,
// the trace is persisted with a dataset but excluded from Dataset.Digest.

// DefaultSpanCap is the default per-slot completed-span capacity. The
// span store never overwrites: once a slot is full, new spans are
// dropped and counted, so the retained prefix of every shard's tree
// stays parent-consistent.
const DefaultSpanCap = 1 << 16

// spanChunk is how many completed spans one storage block holds; chunked
// growth keeps the amortized cost of ending a span to ~zero allocations.
const spanChunk = 1024

// SpanKind classifies a span.
type SpanKind string

// The span kinds emitted by the instrumented measurement engine, from
// outermost to innermost.
const (
	SpanCampaign SpanKind = "campaign"
	SpanRun      SpanKind = "run"
	SpanVisit    SpanKind = "visit"
	SpanAttempt  SpanKind = "attempt"
	SpanProbe    SpanKind = "probe"
	SpanTune     SpanKind = "tune"
	SpanAIT      SpanKind = "ait"
	SpanApp      SpanKind = "app"
	SpanBurst    SpanKind = "flow-burst"
	SpanMerge    SpanKind = "merge"
)

// EventKind classifies a span note.
type EventKind string

// The note kinds emitted by the instrumented measurement engine: an
// injected fault, a visit attempt being retried, a channel exhausting its
// attempts, a channel being quarantined after failing in too many
// consecutive runs, and a panic recovered inside a channel visit. The
// string values are persisted with every trace.
const (
	EventFault       EventKind = "fault.injected"
	EventRetry       EventKind = "channel.retry"
	EventChannelFail EventKind = "channel.failed"
	EventQuarantine  EventKind = "channel.quarantined"
	EventPanic       EventKind = "panic.recovered"
)

// SpanNote is a structured annotation attached to a span while it was
// open: what happened inside the phase the span records.
type SpanNote struct {
	Time   time.Time `json:"time"`
	Kind   EventKind `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Span is one completed interval of virtual time. ID and Parent are
// shard-local: IDs count up from 1 per registry slot, Parent 0 means a
// root span, and a parent link never crosses shards — per-shard trees,
// which is what lets fleet merging concatenate traces without rewriting
// IDs.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Shard is the emitting slot's shard index (-1: engine controller).
	Shard int       `json:"shard"`
	Kind  SpanKind  `json:"kind"`
	Name  string    `json:"name,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attempt is the visit/probe attempt number (0 when not an attempt).
	Attempt int `json:"attempt,omitempty"`
	// Flows counts the flows recorded inside a flow-burst span.
	Flows int        `json:"flows,omitempty"`
	Notes []SpanNote `json:"notes,omitempty"`
}

// Duration is the span's virtual-time extent.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is the persisted span artifact: every completed span of a
// campaign in canonical order (Start, Shard, ID).
type Trace struct {
	Spans []Span `json:"spans,omitempty"`
	// Dropped records spans discarded after a slot's cap was reached,
	// per shard slot (omitted when nothing was dropped).
	Dropped []SpanDrops `json:"dropped,omitempty"`
}

// SpanDrops is one slot's count of capacity-dropped spans.
type SpanDrops struct {
	Shard   int    `json:"shard"`
	Dropped uint64 `json:"dropped"`
}

// DroppedSpans sums the per-slot drop counts.
func (t *Trace) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, d := range t.Dropped {
		n += d.Dropped
	}
	return n
}

// openSpan is a span under construction. Completed instances return to
// the tracer's freelist, so the steady-state cost of a span is the copy
// into the chunk arena, not an allocation.
type openSpan struct {
	span    Span
	stacked bool
}

// tracer is one registry slot's span store. Only the slot's own
// goroutine starts and ends spans — strictly nested per shard — so the
// mutex is uncontended on the hot path and exists for concurrent readers
// (the live dashboard).
type tracer struct {
	mu    sync.Mutex
	shard int // Index() value: -1 for the controller slot
	cap   int

	nextID uint64
	// stack holds the open, strictly-nested spans; the top is the
	// implicit parent of the next span started on this slot.
	stack []*openSpan
	// chunks is the completed-span arena, in completion order; the last
	// chunk is the append target.
	chunks  [][]Span
	count   int
	dropped uint64
	free    []*openSpan
}

// start opens a span. detached spans capture the current stack top as
// parent but are not pushed — the recorder's flow bursts, whose start
// and end are flow timestamps, close after their parent attempt ended.
func (t *tracer) start(kind SpanKind, name string, at time.Time, detached bool) *openSpan {
	t.mu.Lock()
	var o *openSpan
	if n := len(t.free); n > 0 {
		o = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		o = &openSpan{}
	}
	t.nextID++
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].span.ID
	}
	o.span = Span{
		ID: t.nextID, Parent: parent, Shard: t.shard,
		Kind: kind, Name: name, Start: at,
	}
	o.stacked = !detached
	if !detached {
		t.stack = append(t.stack, o)
	}
	t.mu.Unlock()
	return o
}

// end completes a span: it is popped if stacked, stamped, and copied
// into the arena (or counted as dropped once the slot is full).
func (t *tracer) end(o *openSpan, at time.Time) {
	t.mu.Lock()
	if o.stacked {
		// Spans end strictly LIFO per slot (instrumentation ends them via
		// defer); tolerate a mismatched pop by searching from the top so a
		// misuse cannot corrupt unrelated spans.
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == o {
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
	}
	o.span.End = at
	if t.count >= t.cap {
		t.dropped++
	} else {
		n := len(t.chunks)
		if n == 0 || len(t.chunks[n-1]) == cap(t.chunks[n-1]) {
			t.chunks = append(t.chunks, make([]Span, 0, spanChunk))
			n++
		}
		t.chunks[n-1] = append(t.chunks[n-1], o.span)
		t.count++
	}
	// The stored span owns the notes slice now; the recycled openSpan
	// must start clean.
	o.span = Span{}
	t.free = append(t.free, o)
	t.mu.Unlock()
}

// annotate attaches a note to the innermost open stacked span (no-op
// when nothing is open).
func (t *tracer) annotate(note SpanNote) {
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		o := t.stack[n-1]
		o.span.Notes = append(o.span.Notes, note)
	}
	t.mu.Unlock()
}

// completed copies the slot's completed spans (open spans are excluded;
// collect traces after the instrumented phase finished).
func (t *tracer) completed() (spans []Span, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count > 0 {
		spans = make([]Span, 0, t.count)
		for _, c := range t.chunks {
			spans = append(spans, c...)
		}
	}
	return spans, t.dropped
}

// appendRecent appends the slot's last n completed spans to dst, in
// completion order. It copies at most n spans, so a reader holds the
// slot's mutex for a bounded time however full the store is.
func (t *tracer) appendRecent(dst []Span, n int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	skip := t.count - n
	for _, c := range t.chunks {
		if skip >= len(c) {
			skip -= len(c)
			continue
		}
		if skip > 0 {
			c, skip = c[skip:], 0
		}
		dst = append(dst, c...)
	}
	return dst
}

// SpanRef is the hot-path handle to an open span. The zero value (and
// any ref from a nil Shard) is inert: every method is a no-op, so
// instrumented code needs no "is tracing enabled?" branches.
type SpanRef struct {
	t   *tracer
	o   *openSpan
	now func() time.Time
}

// Active reports whether the ref points at a live span.
func (r SpanRef) Active() bool { return r.t != nil }

// StartSpan opens a span on the shard's slot, timestamped on the shard's
// virtual clock. The span nests under the slot's innermost open span;
// close it with End (typically deferred).
func (s *Shard) StartSpan(kind SpanKind, name string) SpanRef {
	if s == nil {
		return SpanRef{}
	}
	var at time.Time
	if s.now != nil {
		at = s.now()
	}
	t := s.reg.tracers[s.idx]
	return SpanRef{t: t, o: t.start(kind, name, at, false), now: s.now}
}

// OpenSpanAt opens a detached span starting at the given (virtual)
// instant: it records the slot's innermost open span as parent but does
// not nest on the stack, so it may outlive its parent and must be closed
// with EndAt. The proxy recorder uses this for flow bursts, whose
// boundaries are flow timestamps rather than control flow.
func (s *Shard) OpenSpanAt(kind SpanKind, name string, start time.Time) SpanRef {
	if s == nil {
		return SpanRef{}
	}
	t := s.reg.tracers[s.idx]
	return SpanRef{t: t, o: t.start(kind, name, start, true), now: s.now}
}

// AnnotateSpan attaches a note (timestamped on the shard's virtual
// clock) to the slot's innermost open span — how fault injections,
// retries, failures, quarantines and recovered panics land on the span
// that was running.
func (s *Shard) AnnotateSpan(kind EventKind, detail string) {
	if s == nil {
		return
	}
	var at time.Time
	if s.now != nil {
		at = s.now()
	}
	s.reg.tracers[s.idx].annotate(SpanNote{Time: at, Kind: kind, Detail: detail})
}

// End completes the span at the shard's current virtual time.
func (r SpanRef) End() {
	if r.t == nil {
		return
	}
	var at time.Time
	if r.now != nil {
		at = r.now()
	}
	r.t.end(r.o, at)
}

// EndAt completes the span at the given (virtual) instant — the form for
// detached spans and for callers that already hold the timestamp.
func (r SpanRef) EndAt(at time.Time) {
	if r.t == nil {
		return
	}
	r.t.end(r.o, at)
}

// Annotate attaches a note to this span.
func (r SpanRef) Annotate(at time.Time, kind EventKind, detail string) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.o.span.Notes = append(r.o.span.Notes, SpanNote{Time: at, Kind: kind, Detail: detail})
	r.t.mu.Unlock()
}

// SetName renames the open span — for spans whose subject is only known
// after the work ran (e.g. a merge learns the run it merged).
func (r SpanRef) SetName(name string) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.o.span.Name = name
	r.t.mu.Unlock()
}

// SetAttempt stamps the span's attempt number.
func (r SpanRef) SetAttempt(n int) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.o.span.Attempt = n
	r.t.mu.Unlock()
}

// AddFlow counts one flow into a flow-burst span.
func (r SpanRef) AddFlow() {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.o.span.Flows++
	r.t.mu.Unlock()
}

// Trace collects every completed span across slots in canonical order
// (Start, Shard, ID) — the persisted trace artifact. Open spans are
// excluded; collect after the engine finished. Returns nil on a nil
// registry and an empty (non-nil) trace when tracing recorded nothing.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	tr := &Trace{}
	for _, t := range r.tracers {
		spans, dropped := t.completed()
		tr.Spans = append(tr.Spans, spans...)
		if dropped > 0 {
			tr.Dropped = append(tr.Dropped, SpanDrops{Shard: t.shard, Dropped: dropped})
		}
	}
	SortSpans(tr.Spans)
	sort.Slice(tr.Dropped, func(a, b int) bool { return tr.Dropped[a].Shard < tr.Dropped[b].Shard })
	return tr
}

// RecentSpans is the live dashboard's span feed: it takes each slot's
// last n completed spans (by completion order), merges them in canonical
// order, and returns the last n of the merge. A span that completed
// before its slot's last n completions is not a candidate, so the result
// can differ from the canonical tail of the whole store; in exchange a
// call copies at most n spans per slot.
func (r *Registry) RecentSpans(n int) []Span {
	if r == nil || n <= 0 {
		return nil
	}
	var all []Span
	for _, t := range r.tracers {
		all = t.appendRecent(all, n)
	}
	SortSpans(all)
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// SortSpans orders spans canonically: (Start, Shard, ID). Within one
// shard the ID tiebreak preserves emission order, across shards the
// order is layout-independent.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(a, b int) bool {
		sa, sb := &spans[a], &spans[b]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		if sa.Shard != sb.Shard {
			return sa.Shard < sb.Shard
		}
		return sa.ID < sb.ID
	})
}
