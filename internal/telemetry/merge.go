package telemetry

import "sort"

// Fleet merging of telemetry artifacts. Every fleet shard process runs
// the channel-selection funnel on its own slot 0 before executing its
// partition, so the per-process snapshots and traces overlap: summing
// them naively would count the funnel N times. The merge rule is
// therefore slot-restricted — from shard i's artifacts take only the
// slot-i contribution (its ShardCounters entry, its Shard==i spans, its
// span drop counts):
//
//   - process 0's slot 0 is the funnel plus shard 0's partition, exactly
//     what slot 0 holds in a single-process sharded run (same seed, same
//     sequential execution, same sequence numbers);
//   - process i>0's slot 0 is a funnel duplicate and is discarded;
//   - process i's slot i starts its sequence numbers at zero exactly like
//     the single-process run's slot i (the funnel only touches slot 0).
//
// The merged artifacts therefore equal the single-process run's,
// restricted to the shard slots (controller-slot data — the merge and
// campaign spans — is process-local and not carried over; the merging
// process's own controller may even run on wall time).
//
// Histograms are the one aggregate summed wholesale: only the shard
// frameworks observe histograms (core_channel_flows is observed during
// run visits, never during funnel probes), so each process's aggregate
// is exactly its own shard's contribution.

// MergeShardSnapshots merges per-shard telemetry snapshots into the
// fleet-wide snapshot. shards[i] is the shard index that produced
// snaps[i] (from its dataset's ShardManifest). Nil snapshots are
// skipped; returns nil when nothing contributes.
func MergeShardSnapshots(shards []int, snaps []*Snapshot) *Snapshot {
	out := &Snapshot{}
	any := false
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		any = true
		shard := shards[i]
		for _, sc := range snap.Shards {
			if sc.Shard != shard {
				continue
			}
			if len(sc.Counters) > 0 {
				if out.Counters == nil {
					out.Counters = make(map[string]uint64)
				}
				counters := make(map[string]uint64, len(sc.Counters))
				for name, v := range sc.Counters {
					counters[name] = v
					out.Counters[name] += v
				}
				sc.Counters = counters
			}
			out.Shards = append(out.Shards, sc)
		}
		for name, g := range snap.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]int64)
			}
			out.Gauges[name] += g
		}
		for name, h := range snap.Histograms {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[name] = addHistogram(out.Histograms[name], h)
		}
	}
	if !any {
		return nil
	}
	sort.Slice(out.Shards, func(a, b int) bool { return out.Shards[a].Shard < out.Shards[b].Shard })
	return out
}

// addHistogram sums two histogram snapshots bucket-by-bucket. An empty
// accumulator adopts the addend's bucket layout; layouts are identical
// across shards by construction (same metric registration everywhere).
func addHistogram(acc, h HistogramSnapshot) HistogramSnapshot {
	acc.Count += h.Count
	acc.Sum += h.Sum
	if acc.Buckets == nil {
		acc.Buckets = append([]BucketCount(nil), h.Buckets...)
		return acc
	}
	for i := range h.Buckets {
		if i < len(acc.Buckets) {
			acc.Buckets[i].Count += h.Buckets[i].Count
		} else {
			acc.Buckets = append(acc.Buckets, h.Buckets[i])
		}
	}
	return acc
}

// MergeShardTraces merges per-shard span traces under the same
// slot-restriction rule, re-sorting into canonical (Start, Shard, ID)
// order. shards[i] is the shard index that produced traces[i]. Returns
// nil when nothing contributes.
func MergeShardTraces(shards []int, traces []*Trace) *Trace {
	out := &Trace{}
	any := false
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		any = true
		shard := shards[i]
		for _, sp := range tr.Spans {
			if sp.Shard == shard {
				out.Spans = append(out.Spans, sp)
			}
		}
		for _, d := range tr.Dropped {
			if d.Shard == shard {
				out.Dropped = append(out.Dropped, d)
			}
		}
	}
	if !any {
		return nil
	}
	SortSpans(out.Spans)
	sort.Slice(out.Dropped, func(a, b int) bool { return out.Dropped[a].Shard < out.Dropped[b].Shard })
	return out
}
