package telemetry

// Snapshot is a point-in-time, JSON-serializable view of the registry's
// metrics: aggregate counters/gauges/histograms and the per-shard counter
// breakdown (feeding per-shard progress/lag displays). What happened is
// recorded by the span trace (Registry.Trace), not here. A snapshot taken
// after a run completes is deterministic for a fixed seed and shard
// count: metrics are shard-local sums and map keys serialize sorted.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Shards breaks the counters down per shard, indexed by shard number.
	Shards []ShardCounters `json:"shards,omitempty"`
}

// HistogramSnapshot is one histogram's aggregate state.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative-style bucket: Count observations were
// <= UpperBound (the overflow bucket has UpperBound == -1 meaning +Inf).
type BucketCount struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// ShardCounters is one shard's counter contributions.
type ShardCounters struct {
	Shard    int               `json:"shard"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Snapshot captures the registry's current state. Safe to call while
// shards are still publishing (the in-flight view is internally
// consistent per metric, not across metrics); a snapshot taken after the
// engine finishes is stable and deterministic. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	snap := &Snapshot{}

	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	perShard := make([]map[string]uint64, r.shards)
	if len(counters) > 0 {
		snap.Counters = make(map[string]uint64, len(counters))
		for _, c := range counters {
			snap.Counters[c.name] = c.Value()
			for s := 0; s < r.shards; s++ {
				if v := c.ShardValue(s); v > 0 {
					if perShard[s] == nil {
						perShard[s] = make(map[string]uint64)
					}
					perShard[s][c.name] = v
				}
			}
		}
	}
	for s := 0; s < r.shards; s++ {
		if perShard[s] != nil {
			snap.Shards = append(snap.Shards, ShardCounters{Shard: s, Counters: perShard[s]})
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for _, g := range gauges {
			snap.Gauges[g.name] = g.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for _, h := range hists {
			snap.Histograms[h.name] = h.snapshot()
		}
	}
	return snap
}

// snapshot aggregates one histogram across shards.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{}
	bucketTotals := make([]uint64, len(h.bounds)+1)
	for s := range h.shards {
		for i := range h.shards[s] {
			bucketTotals[i] += atomicLoad(&h.shards[s][i])
		}
		out.Count += atomicLoad(&h.counts[s].v)
		out.Sum += int64(atomicLoad(&h.sums[s].v))
	}
	for i, n := range bucketTotals {
		bound := int64(-1) // +Inf overflow bucket
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out.Buckets = append(out.Buckets, BucketCount{UpperBound: bound, Count: n})
	}
	return out
}
