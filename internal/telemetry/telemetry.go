// Package telemetry is the measurement engine's observability layer: a
// zero-dependency (standard library only) collection of counters, gauges
// and histograms, plus a span trace whose spans and notes are the one
// record of what a campaign did (see span.go). It is designed around the
// two constraints of the sharded engine:
//
//   - Instrumentation must cost ~nothing on the hot path. Every metric is
//     a fixed array of shard-local atomic cells (padded against false
//     sharing), so a shard increments its own cell with one uncontended
//     atomic add and never takes a lock; aggregation sums the cells on
//     the (cold) read side.
//
//   - Telemetry must be deterministic-safe. Span and note timestamps come
//     from the shard's *virtual* clock (the same timeline the measurement
//     itself runs on), never from wall time, so enabling telemetry cannot
//     perturb a run, and a snapshot or trace taken after a run is itself
//     reproducible for a fixed seed and shard count — independent of the
//     worker count, exactly like the dataset it describes.
//
// All handle types (*Registry, *Shard, *BoundCounter, *BoundGauge,
// *BoundHistogram) are nil-safe: every method on a nil receiver is a
// no-op, so instrumented code needs no "is telemetry enabled?" branches.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Registry.
type Options struct {
	// Shards is the number of shard slots (>= 1). Shard indices passed to
	// Registry.Shard must be < Shards; one extra internal slot is
	// reserved for the engine controller (merge phases etc.).
	Shards int
	// SpanCap is the per-shard completed-span capacity (0 = DefaultSpanCap).
	// The span store keeps the oldest spans: once a slot is full, newly
	// completed spans are dropped and counted, so the retained prefix of
	// every shard's span tree stays parent-consistent.
	SpanCap int
}

// Registry holds every metric and the per-slot span stores. Metrics are
// registered lazily by name (get-or-create); registration takes a lock,
// but instrumented code resolves its handles once at wiring time, so the
// hot path only ever touches atomic cells.
type Registry struct {
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracers []*tracer // len == shards+1; slot [shards] is the controller
}

// New builds a registry with the given shard count.
func New(opts Options) *Registry {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.SpanCap <= 0 {
		opts.SpanCap = DefaultSpanCap
	}
	r := &Registry{
		shards:   opts.Shards,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracers:  make([]*tracer, opts.Shards+1),
	}
	for i := range r.tracers {
		shard := i
		if i == opts.Shards {
			shard = -1 // the controller slot reports like Shard.Index()
		}
		r.tracers[i] = &tracer{shard: shard, cap: opts.SpanCap}
	}
	return r
}

// Shards returns the registry's shard-slot count (0 on a nil registry).
func (r *Registry) Shards() int {
	if r == nil {
		return 0
	}
	return r.shards
}

// cell is one shard's slot of a metric, padded to its own cache line so
// concurrent shards never write-share a line (false sharing would make
// "lock-free" academically true but practically slow).
type cell struct {
	v uint64
	_ [7]uint64
}

// Counter is a monotonically increasing metric with one atomic cell per
// shard. Aggregate reads sum the cells.
type Counter struct {
	name  string
	cells []cell
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name, cells: make([]cell, r.shards+1)}
		r.counters[name] = c
	}
	return c
}

// Add adds n to the shard's cell.
func (c *Counter) Add(shard int, n uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.cells[shard].v, n)
}

// Value returns the aggregate over all shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += atomic.LoadUint64(&c.cells[i].v)
	}
	return sum
}

// ShardValue returns one shard's contribution.
func (c *Counter) ShardValue(shard int) uint64 {
	if c == nil || shard < 0 || shard >= len(c.cells) {
		return 0
	}
	return atomic.LoadUint64(&c.cells[shard].v)
}

// Gauge is a point-in-time metric with one atomic cell per shard; the
// aggregate is the sum of the shard values (e.g. "active shards" as the
// sum of per-shard 0/1 flags).
type Gauge struct {
	name  string
	cells []cell // stores int64 bits
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name, cells: make([]cell, r.shards+1)}
		r.gauges[name] = g
	}
	return g
}

// Set stores v as the shard's value.
func (g *Gauge) Set(shard int, v int64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.cells[shard].v, uint64(v))
}

// Add adds delta to the shard's value.
func (g *Gauge) Add(shard int, delta int64) {
	if g == nil {
		return
	}
	atomic.AddUint64(&g.cells[shard].v, uint64(delta))
}

// Value returns the sum over all shards.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	var sum int64
	for i := range g.cells {
		sum += int64(atomic.LoadUint64(&g.cells[i].v))
	}
	return sum
}

// Histogram counts integer observations into fixed buckets, shard-locally
// and atomically like Counter. Buckets are cumulative-upper-bound style:
// an observation v lands in the first bucket with v <= bound, or in the
// implicit +Inf overflow bucket.
type Histogram struct {
	name   string
	bounds []int64
	// per shard: one slice holding len(bounds)+1 bucket cells, then the
	// count and sum cells. Separate allocations per shard keep shards on
	// distinct cache lines.
	shards [][]uint64
	sums   []cell
	counts []cell
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds are sorted; later calls with
// the same name reuse the first registration's bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(a, b int) bool { return bs[a] < bs[b] })
		h = &Histogram{
			name:   name,
			bounds: bs,
			shards: make([][]uint64, r.shards+1),
			sums:   make([]cell, r.shards+1),
			counts: make([]cell, r.shards+1),
		}
		for i := range h.shards {
			h.shards[i] = make([]uint64, len(bs)+1)
		}
		r.hists[name] = h
	}
	return h
}

// Observe records one observation for the shard.
func (h *Histogram) Observe(shard int, v int64) {
	if h == nil {
		return
	}
	idx := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	atomic.AddUint64(&h.shards[shard][idx], 1)
	atomic.AddUint64(&h.counts[shard].v, 1)
	atomic.AddUint64(&h.sums[shard].v, uint64(v))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var sum uint64
	for i := range h.counts {
		sum += atomic.LoadUint64(&h.counts[i].v)
	}
	return sum
}

// Shard is a shard-scoped handle: a registry slot plus the shard's own
// (virtual) clock. Instrumented components hold a Shard and the bound
// metric handles they resolved from it at wiring time.
type Shard struct {
	reg *Registry
	idx int
	now func() time.Time
}

// Shard returns a handle for shard idx (0 <= idx < Shards()) whose span
// and note timestamps come from now — the shard's virtual clock. Returns
// nil on a nil registry, so disabled telemetry threads through as nil
// handles.
func (r *Registry) Shard(idx int, now func() time.Time) *Shard {
	if r == nil {
		return nil
	}
	return &Shard{reg: r, idx: idx, now: now}
}

// Controller returns the handle for the engine-controller slot (merge
// phases and other out-of-shard work). Its spans report Shard == -1.
func (r *Registry) Controller(now func() time.Time) *Shard {
	if r == nil {
		return nil
	}
	return &Shard{reg: r, idx: r.shards, now: now}
}

// Active reports whether the handle is live; use it to skip constructing
// expensive note details when telemetry is off.
func (s *Shard) Active() bool { return s != nil }

// Index returns the shard index (-1 for the controller or a nil handle).
func (s *Shard) Index() int {
	if s == nil || s.idx == s.reg.shards {
		return -1
	}
	return s.idx
}

// BoundCounter is a Counter pre-bound to one shard: the hot-path handle.
type BoundCounter struct {
	c     *Counter
	shard int
}

// Counter resolves the named counter bound to this shard.
func (s *Shard) Counter(name string) *BoundCounter {
	if s == nil {
		return nil
	}
	return &BoundCounter{c: s.reg.Counter(name), shard: s.idx}
}

// Add adds n to the bound shard's cell.
func (b *BoundCounter) Add(n uint64) {
	if b == nil {
		return
	}
	b.c.Add(b.shard, n)
}

// Inc adds 1.
func (b *BoundCounter) Inc() { b.Add(1) }

// BoundGauge is a Gauge pre-bound to one shard.
type BoundGauge struct {
	g     *Gauge
	shard int
}

// Gauge resolves the named gauge bound to this shard.
func (s *Shard) Gauge(name string) *BoundGauge {
	if s == nil {
		return nil
	}
	return &BoundGauge{g: s.reg.Gauge(name), shard: s.idx}
}

// Set stores v in the bound shard's cell.
func (b *BoundGauge) Set(v int64) {
	if b == nil {
		return
	}
	b.g.Set(b.shard, v)
}

// Add adds delta to the bound shard's cell.
func (b *BoundGauge) Add(delta int64) {
	if b == nil {
		return
	}
	b.g.Add(b.shard, delta)
}

// BoundHistogram is a Histogram pre-bound to one shard.
type BoundHistogram struct {
	h     *Histogram
	shard int
}

// Histogram resolves the named histogram bound to this shard.
func (s *Shard) Histogram(name string, bounds []int64) *BoundHistogram {
	if s == nil {
		return nil
	}
	return &BoundHistogram{h: s.reg.Histogram(name, bounds), shard: s.idx}
}

// Observe records one observation in the bound shard's cells.
func (b *BoundHistogram) Observe(v int64) {
	if b == nil {
		return
	}
	b.h.Observe(b.shard, v)
}
