package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// buildShardProcess simulates fleet process `shard` of a 2-way campaign:
// every process runs the channel-selection funnel on its slot 0 (the
// duplicate the merge must discard for shard > 0), then its own partition
// on slot `shard`.
func buildShardProcess(shard int) *Registry {
	r := New(Options{Shards: 2})
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	funnel := r.Shard(0, fixedNow(base))
	funnel.Counter("core_channels_probed").Add(10) // funnel work, every process
	own := r.Shard(shard, fixedNow(base.Add(time.Duration(shard+1)*time.Second)))
	own.Counter("core_channels_visited").Add(uint64(shard + 1))
	own.Gauge("core_shards_active").Set(1)
	own.Histogram("core_channel_flows", []int64{1, 10}).Observe(int64(5 * (shard + 1)))
	s := own.StartSpan(SpanVisit, "ch")
	s.End()
	return r
}

func TestMergeShardSnapshotsSlotRestriction(t *testing.T) {
	r0, r1 := buildShardProcess(0), buildShardProcess(1)
	merged := MergeShardSnapshots([]int{0, 1}, []*Snapshot{r0.Snapshot(), r1.Snapshot()})
	if merged == nil {
		t.Fatal("merge returned nil")
	}

	// The funnel ran in both processes but only process 0's slot 0 may
	// contribute: probed stays 10, not 20.
	if got := merged.Counters["core_channels_probed"]; got != 10 {
		t.Fatalf("core_channels_probed = %d, want 10 (funnel counted once)", got)
	}
	if got := merged.Counters["core_channels_visited"]; got != 1+2 {
		t.Fatalf("core_channels_visited = %d, want 3", got)
	}

	// Per-shard breakdown: slot 0 from process 0 (funnel + its own work),
	// slot 1 from process 1, in index order.
	if len(merged.Shards) != 2 || merged.Shards[0].Shard != 0 || merged.Shards[1].Shard != 1 {
		t.Fatalf("shards = %+v", merged.Shards)
	}
	if merged.Shards[0].Counters["core_channels_probed"] != 10 ||
		merged.Shards[1].Counters["core_channels_probed"] != 0 {
		t.Fatalf("funnel leaked into shard 1: %+v", merged.Shards)
	}

	// Gauges and histograms sum wholesale (only shard work observes them).
	if merged.Gauges["core_shards_active"] != 2 {
		t.Fatalf("gauge = %d, want 2", merged.Gauges["core_shards_active"])
	}
	h := merged.Histograms["core_channel_flows"]
	if h.Count != 2 || h.Sum != 5+10 {
		t.Fatalf("histogram = %+v, want count 2 sum 15", h)
	}
}

// TestMergeShardSnapshotsMatchesInProcess is the worker-invariance
// contract in miniature: merging the two simulated processes equals the
// one-process snapshot restricted to the shard slots.
func TestMergeShardSnapshotsMatchesInProcess(t *testing.T) {
	// The single-process run: one registry, funnel once, both partitions.
	r := New(Options{Shards: 2})
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	funnel := r.Shard(0, fixedNow(base))
	funnel.Counter("core_channels_probed").Add(10)
	for shard := 0; shard < 2; shard++ {
		own := r.Shard(shard, fixedNow(base.Add(time.Duration(shard+1)*time.Second)))
		own.Counter("core_channels_visited").Add(uint64(shard + 1))
		own.Gauge("core_shards_active").Set(1)
		own.Histogram("core_channel_flows", []int64{1, 10}).Observe(int64(5 * (shard + 1)))
		own.StartSpan(SpanVisit, "ch").End()
	}
	want := r.Snapshot()

	r0, r1 := buildShardProcess(0), buildShardProcess(1)
	merged := MergeShardSnapshots([]int{0, 1}, []*Snapshot{r0.Snapshot(), r1.Snapshot()})
	if !reflect.DeepEqual(merged.Counters, want.Counters) {
		t.Fatalf("counters:\nmerged %+v\nwant   %+v", merged.Counters, want.Counters)
	}
	if !reflect.DeepEqual(merged.Shards, want.Shards) {
		t.Fatalf("per-shard:\nmerged %+v\nwant   %+v", merged.Shards, want.Shards)
	}
	if !reflect.DeepEqual(merged.Gauges, want.Gauges) {
		t.Fatalf("gauges:\nmerged %+v\nwant   %+v", merged.Gauges, want.Gauges)
	}
	if !reflect.DeepEqual(merged.Histograms, want.Histograms) {
		t.Fatalf("histograms:\nmerged %+v\nwant   %+v", merged.Histograms, want.Histograms)
	}

	wantTrace := r.Trace()
	mergedTrace := MergeShardTraces([]int{0, 1}, []*Trace{r0.Trace(), r1.Trace()})
	if !reflect.DeepEqual(mergedTrace, wantTrace) {
		t.Fatalf("traces:\nmerged %+v\nwant   %+v", mergedTrace, wantTrace)
	}
}

func TestMergeShardTracesFiltersAndSorts(t *testing.T) {
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	tr0 := &Trace{
		Spans: []Span{
			{ID: 1, Shard: 0, Kind: SpanProbe, Start: base},                  // funnel on its own slot: kept
			{ID: 1, Shard: 1, Kind: SpanVisit, Start: base.Add(time.Second)}, // not this process's shard: dropped
		},
		Dropped: []SpanDrops{{Shard: 0, Dropped: 7}},
	}
	tr1 := &Trace{
		Spans: []Span{
			{ID: 1, Shard: 0, Kind: SpanProbe, Start: base}, // funnel duplicate: dropped
			{ID: 2, Shard: 1, Kind: SpanVisit, Start: base.Add(time.Second)},
		},
	}
	merged := MergeShardTraces([]int{0, 1}, []*Trace{tr0, tr1})
	if len(merged.Spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(merged.Spans), merged.Spans)
	}
	if merged.Spans[0].Shard != 0 || merged.Spans[1].Shard != 1 || merged.Spans[1].ID != 2 {
		t.Fatalf("merged spans = %+v", merged.Spans)
	}
	if len(merged.Dropped) != 1 || merged.Dropped[0] != (SpanDrops{Shard: 0, Dropped: 7}) {
		t.Fatalf("merged drops = %+v", merged.Dropped)
	}
}

func TestMergeNothingContributes(t *testing.T) {
	if MergeShardSnapshots(nil, nil) != nil {
		t.Fatal("empty snapshot merge != nil")
	}
	if MergeShardSnapshots([]int{0, 1}, []*Snapshot{nil, nil}) != nil {
		t.Fatal("all-nil snapshot merge != nil")
	}
	if MergeShardTraces([]int{0}, []*Trace{nil}) != nil {
		t.Fatal("all-nil trace merge != nil")
	}
}
