package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentShardPublishing is the race-detector stress test for the
// lock-free aggregation design: many shards hammer the same counters,
// gauges and histograms, and open, annotate and end spans on their own
// slots (past the slot's cap, so the drop path runs too), while a reader
// goroutine continuously takes snapshots, traces and the dashboard's
// span tail. Run under `-race` by `make check`.
func TestConcurrentShardPublishing(t *testing.T) {
	const shards = 8
	const opsPerShard = 5000
	// Each shard completes two spans per channel; the cap keeps about
	// half of them.
	const spanCap = opsPerShard / 10

	r := New(Options{Shards: shards, SpanCap: spanCap})
	base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if r.Snapshot() == nil || r.Trace() == nil {
					t.Error("nil snapshot or trace from live registry")
					return
				}
				if n := len(r.RecentSpans(liveTail)); n > liveTail {
					t.Errorf("RecentSpans(%d) returned %d spans", liveTail, n)
					return
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for s := 0; s < shards; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			clk := base
			sh := r.Shard(s, func() time.Time { return clk })
			flows := sh.Counter("flows")
			channels := sh.Counter("channels")
			active := sh.Gauge("active")
			hist := sh.Histogram("per_channel", []int64{1, 10, 100})
			active.Set(1)
			for i := 0; i < opsPerShard; i++ {
				flows.Inc()
				if i%10 == 0 {
					channels.Inc()
					hist.Observe(int64(i % 150))
					visit := sh.StartSpan(SpanVisit, "ch")
					sh.AnnotateSpan(EventFault, "http ch")
					burst := sh.OpenSpanAt(SpanBurst, "ch", clk)
					burst.AddFlow()
					visit.End()
					burst.EndAt(clk)
					clk = clk.Add(time.Second)
				}
			}
			active.Set(0)
		}(s)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["flows"]; got != shards*opsPerShard {
		t.Fatalf("flows = %d, want %d", got, shards*opsPerShard)
	}
	if got := snap.Counters["channels"]; got != shards*opsPerShard/10 {
		t.Fatalf("channels = %d, want %d", got, shards*opsPerShard/10)
	}
	if got := snap.Gauges["active"]; got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
	if got := snap.Histograms["per_channel"].Count; got != shards*opsPerShard/10 {
		t.Fatalf("histogram count = %d, want %d", got, shards*opsPerShard/10)
	}
	if len(snap.Shards) != shards {
		t.Fatalf("per-shard entries = %d, want %d", len(snap.Shards), shards)
	}
	for _, sc := range snap.Shards {
		if sc.Counters["flows"] != opsPerShard {
			t.Fatalf("shard %d flows = %d, want %d", sc.Shard, sc.Counters["flows"], opsPerShard)
		}
	}

	tr := r.Trace()
	kept := make(map[int]int)
	for _, sp := range tr.Spans {
		kept[sp.Shard]++
		if sp.Kind == SpanVisit && (len(sp.Notes) != 1 || sp.Notes[0].Kind != EventFault) {
			t.Fatalf("visit span %d on shard %d carries notes %+v, want one fault", sp.ID, sp.Shard, sp.Notes)
		}
	}
	for s := 0; s < shards; s++ {
		if kept[s] != spanCap {
			t.Fatalf("shard %d kept %d spans, want the cap %d", s, kept[s], spanCap)
		}
	}
	if got, want := tr.DroppedSpans(), uint64(shards*(2*opsPerShard/10-spanCap)); got != want {
		t.Fatalf("DroppedSpans = %d, want %d", got, want)
	}
}
