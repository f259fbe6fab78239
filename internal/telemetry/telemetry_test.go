package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func fixedNow(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestCounterShardLocalAggregation(t *testing.T) {
	r := New(Options{Shards: 4})
	c := r.Counter("flows")
	c.Add(0, 3)
	c.Add(1, 5)
	c.Add(3, 2)
	if got := c.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	if got := c.ShardValue(1); got != 5 {
		t.Fatalf("ShardValue(1) = %d, want 5", got)
	}
	if got := c.ShardValue(2); got != 0 {
		t.Fatalf("ShardValue(2) = %d, want 0", got)
	}
	if r.Counter("flows") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGaugeSumsShards(t *testing.T) {
	r := New(Options{Shards: 3})
	g := r.Gauge("active")
	g.Set(0, 1)
	g.Set(1, 1)
	g.Set(2, 1)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	g.Add(1, -1)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value after Add(-1) = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(Options{Shards: 2})
	h := r.Histogram("per_channel_flows", []int64{1, 10, 100})
	h.Observe(0, 0)   // <= 1
	h.Observe(0, 1)   // <= 1
	h.Observe(1, 7)   // <= 10
	h.Observe(1, 100) // <= 100
	h.Observe(0, 999) // overflow
	snap := h.snapshot()
	if snap.Count != 5 {
		t.Fatalf("Count = %d, want 5", snap.Count)
	}
	if snap.Sum != 0+1+7+100+999 {
		t.Fatalf("Sum = %d, want 1107", snap.Sum)
	}
	wantCounts := []uint64{2, 1, 1, 1}
	for i, b := range snap.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if last := snap.Buckets[len(snap.Buckets)-1]; last.UpperBound != -1 {
		t.Fatalf("overflow bucket bound = %d, want -1", last.UpperBound)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Shards() != 0 {
		t.Fatal("nil registry Shards != 0")
	}
	sh := r.Shard(0, nil)
	if sh != nil {
		t.Fatal("nil registry returned live shard handle")
	}
	if sh.Active() {
		t.Fatal("nil shard reports Active")
	}
	// None of these may panic.
	sh.Counter("x").Inc()
	sh.Gauge("y").Set(1)
	sh.Histogram("z", []int64{1}).Observe(5)
	r.Counter("x").Add(0, 1)
	if r.Counter("x").Value() != 0 {
		t.Fatal("nil counter has value")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	var sink *LineSink
	if err := sink.Emit(&Snapshot{}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPerShardBreakdown(t *testing.T) {
	r := New(Options{Shards: 3})
	c := r.Counter("channels_visited")
	c.Add(0, 4)
	c.Add(2, 9)
	snap := r.Snapshot()
	if snap.Counters["channels_visited"] != 13 {
		t.Fatalf("aggregate = %d, want 13", snap.Counters["channels_visited"])
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("per-shard entries = %d, want 2 (zero shards omitted)", len(snap.Shards))
	}
	if snap.Shards[0].Shard != 0 || snap.Shards[0].Counters["channels_visited"] != 4 {
		t.Fatalf("shard 0 breakdown wrong: %+v", snap.Shards[0])
	}
	if snap.Shards[1].Shard != 2 || snap.Shards[1].Counters["channels_visited"] != 9 {
		t.Fatalf("shard 2 breakdown wrong: %+v", snap.Shards[1])
	}
}

func TestLineSinkEmitsOneJSONObjectPerLine(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Counter("n").Add(0, 1)
	var buf bytes.Buffer
	sink := NewLineSink(&buf)
	if err := sink.Emit(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r.Counter("n").Add(0, 1)
	if err := sink.Emit(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var snap Snapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if snap.Counters["n"] != uint64(i+1) {
			t.Fatalf("line %d counter = %d, want %d", i, snap.Counters["n"], i+1)
		}
	}
}

func TestHTTPHandlerServesSnapshot(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Counter("requests").Add(0, 42)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests"] != 42 {
		t.Fatalf("served counter = %d, want 42", snap.Counters["requests"])
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := New(Options{Shards: 2})
		base := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
		for s := 0; s < 2; s++ {
			sh := r.Shard(s, fixedNow(base.Add(time.Duration(s)*time.Second)))
			sh.Counter("a").Add(uint64(s + 1))
			sh.Counter("b").Inc()
			sh.Gauge("g").Set(int64(s))
			sh.Histogram("h", []int64{1, 10}).Observe(int64(s * 5))
		}
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical registries marshalled differently")
	}
}
