package core

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
)

// The scheduler tests watch the pool's (shard, run) cells from outside,
// through the test's own hooks: every host of a shard's world notes
// which cell its requests belong to (by the shard clock's run date), and
// the checkpoint commit closes the cell.

// scheduleSpecs are three shortened runs on well-covered days, so every
// shard has channels on air — and so requests — in every cell.
func scheduleSpecs() []RunSpec {
	return []RunSpec{
		{Name: store.RunGeneral,
			Date:  time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC),
			Watch: 60 * time.Second, ShotEvery: 60 * time.Second},
		{Name: store.RunRed,
			Date:   time.Date(2023, 9, 14, 9, 0, 0, 0, time.UTC),
			Button: appmodel.KeyRed,
			Watch:  60 * time.Second, ShotEvery: 38 * time.Second},
		{Name: store.RunYellow,
			Date:   time.Date(2023, 10, 12, 9, 0, 0, 0, time.UTC),
			Button: appmodel.KeyYellow,
			Watch:  60 * time.Second, ShotEvery: 38 * time.Second},
	}
}

// cell names one (shard, run) cell.
type cell struct{ shard, run int }

// cellProbe is a ShardFactory plus checkpoint hooks that record the order
// cells start in and fail the test if one shard ever has two cells in
// flight or more cells are in flight than there are workers.
type cellProbe struct {
	t       *testing.T
	seed    int64
	scale   float64
	specs   []RunSpec
	workers int

	mu          sync.Mutex
	worlds      map[int]*synth.World
	inFlight    map[int]int // shard → run of the cell in flight
	starts      []cell
	commits     []*store.CheckpointCell
	panicCommit *cell // when set, committing this cell panics
}

func newCellProbe(t *testing.T, seed int64, scale float64, specs []RunSpec, workers int) *cellProbe {
	return &cellProbe{t: t, seed: seed, scale: scale, specs: specs, workers: workers,
		worlds: make(map[int]*synth.World), inFlight: make(map[int]int)}
}

// factory builds shard's world and framework as poolFactory does, with
// every host of the world wrapped to report its requests.
func (p *cellProbe) factory(shard int) (*Framework, error) {
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: p.seed, Scale: p.scale}, clk)
	for _, host := range world.Internet.Hosts() {
		next, _ := world.Internet.Lookup(host)
		world.Internet.HandleFunc(host, func(w http.ResponseWriter, r *http.Request) {
			p.request(shard, clk.Now())
			next.ServeHTTP(w, r)
		})
	}
	p.mu.Lock()
	p.worlds[shard] = world
	p.mu.Unlock()
	return New(Config{
		Internet:     world.Internet,
		Seed:         p.seed ^ int64(shard),
		Clock:        clk,
		Availability: world.Availability,
	}), nil
}

// request notes a request of shard served at virtual time now: the first
// of a cell opens it.
func (p *cellProbe) request(shard int, now time.Time) {
	run := 0
	for i, spec := range p.specs {
		if !now.Before(spec.Date) {
			run = i
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur, ok := p.inFlight[shard]
	switch {
	case !ok:
		p.inFlight[shard] = run
		p.starts = append(p.starts, cell{shard, run})
		if len(p.inFlight) > p.workers {
			p.t.Errorf("%d cells in flight with %d workers: %v", len(p.inFlight), p.workers, p.inFlight)
		}
	case cur != run:
		p.t.Errorf("shard %d: run %d request while run %d is in flight", shard, run, cur)
	}
}

// checkpointer returns hooks that commit into the probe and, for a
// resume, replay prefix[shard] cells of an earlier pass's commits.
func (p *cellProbe) checkpointer(earlier []*store.CheckpointCell, prefix map[int]int) *Checkpointer {
	byShard := make(map[int][]*store.CheckpointCell)
	for _, c := range earlier {
		if len(byShard[c.Shard]) < prefix[c.Shard] {
			byShard[c.Shard] = append(byShard[c.Shard], c)
		}
	}
	return &Checkpointer{
		Completed: func(shard int) []*store.CheckpointCell { return byShard[shard] },
		CaptureWorld: func(shard int) []store.TrackerState {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.worlds[shard].TrackerStates()
		},
		RestoreWorld: func(shard int, trackers []store.TrackerState) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.worlds[shard].RestoreTrackerStates(trackers)
		},
		Commit: func(c *store.CheckpointCell) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			if cur, ok := p.inFlight[c.Shard]; ok && cur != c.RunIndex {
				p.t.Errorf("shard %d: commit of run %d while run %d is in flight", c.Shard, c.RunIndex, cur)
			}
			delete(p.inFlight, c.Shard)
			p.commits = append(p.commits, c)
			if pc := p.panicCommit; pc != nil && *pc == (cell{c.Shard, c.RunIndex}) {
				panic(fmt.Sprintf("commit of shard %d run %d", c.Shard, c.RunIndex))
			}
			return nil
		},
	}
}

// roundRobin lists every (shard, run) cell in (run, shard) order.
func roundRobin(shards, runs int) []cell {
	var out []cell
	for r := 0; r < runs; r++ {
		for s := 0; s < shards; s++ {
			out = append(out, cell{s, r})
		}
	}
	return out
}

// TestPoolCellOrderRoundRobin: with one worker, cells start run by run,
// each run across the shards in index order — the outlier's shard never
// runs its whole campaign alone at the end.
func TestPoolCellOrderRoundRobin(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 4
	channels := poolChannels(seed, scale)
	specs := scheduleSpecs()
	probe := newCellProbe(t, seed, scale, specs, 1)
	pool := &Pool{Shards: shards, Workers: 1, Factory: probe.factory, Checkpoint: probe.checkpointer(nil, nil)}
	if _, err := pool.ExecuteRuns(context.Background(), specs, channels); err != nil {
		t.Fatal(err)
	}
	if want := roundRobin(shards, len(specs)); !reflect.DeepEqual(probe.starts, want) {
		t.Fatalf("cells started in order\n %v\nwant\n %v", probe.starts, want)
	}
}

// TestPoolCellResumeFurthestBehindFirst: a resume whose journal holds
// shard prefixes of uneven length starts with the shard with the most
// cells left, then keeps the shards level run by run — and still reaches
// the uninterrupted digest.
func TestPoolCellResumeFurthestBehindFirst(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 4
	channels := poolChannels(seed, scale)
	specs := scheduleSpecs()
	ctx := context.Background()

	full := newCellProbe(t, seed, scale, specs, 1)
	want, err := (&Pool{Shards: shards, Workers: 1, Factory: full.factory, Checkpoint: full.checkpointer(nil, nil)}).ExecuteRuns(ctx, specs, channels)
	if err != nil {
		t.Fatal(err)
	}

	// Cells left per shard: 1, 2, 3, 2.
	prefix := map[int]int{0: 2, 1: 1, 2: 0, 3: 1}
	resumed := newCellProbe(t, seed, scale, specs, 1)
	pool := &Pool{Shards: shards, Workers: 1, Factory: resumed.factory, Checkpoint: resumed.checkpointer(full.commits, prefix)}
	got, err := pool.ExecuteRuns(ctx, specs, channels)
	if err != nil {
		t.Fatal(err)
	}
	order := []cell{{2, 0}, {1, 1}, {2, 1}, {3, 1}, {0, 2}, {1, 2}, {2, 2}, {3, 2}}
	if !reflect.DeepEqual(resumed.starts, order) {
		t.Fatalf("resumed cells started in order\n %v\nwant\n %v", resumed.starts, order)
	}
	if g, w := datasetDigest(t, got), datasetDigest(t, want); g != w {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", g, w)
	}
}

// TestPoolCellsOfOneShardNeverOverlap: with two workers, cells of
// different shards run at once but never two of one shard, and the
// dataset is the one-worker dataset byte for byte.
func TestPoolCellsOfOneShardNeverOverlap(t *testing.T) {
	const seed, scale, shards = 7, 0.04, 4
	channels := poolChannels(seed, scale)
	specs := scheduleSpecs()
	digests := make(map[int]string)
	for _, workers := range []int{1, 2} {
		probe := newCellProbe(t, seed, scale, specs, workers)
		pool := &Pool{Shards: shards, Workers: workers, Factory: probe.factory, Checkpoint: probe.checkpointer(nil, nil)}
		ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(probe.starts); n != shards*len(specs) {
			t.Fatalf("workers=%d: %d cells started, want %d", workers, n, shards*len(specs))
		}
		digests[workers] = datasetDigest(t, ds)
	}
	if digests[1] != digests[2] {
		t.Fatalf("digest at 2 workers %s != at 1 worker %s", digests[2], digests[1])
	}
}

// TestPoolCellPanicFailsOnlyThatShard: a panic in one shard's Factory, or
// in one of its run steps outside channel scope (here the checkpoint
// commit), is recovered as that shard's error; every other shard measures
// every run.
func TestPoolCellPanicFailsOnlyThatShard(t *testing.T) {
	const seed, scale, shards, victim = 3, 0.04, 4, 1
	channels := poolChannels(seed, scale)
	specs := scheduleSpecs()
	subset := len(ShardSubset(channels, victim, shards))
	cases := []struct {
		name     string
		factory  bool // panic in the victim's Factory, else in its run-1 commit
		measured int  // runs the victim measured before it stopped
	}{
		{"factory", true, 0},
		{"run", false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := newCellProbe(t, seed, scale, specs, 2)
			factory := probe.factory
			if tc.factory {
				factory = func(shard int) (*Framework, error) {
					if shard == victim {
						panic("shard 1 hardware on fire")
					}
					return probe.factory(shard)
				}
			} else {
				probe.panicCommit = &cell{victim, 1}
			}
			pool := &Pool{Shards: shards, Workers: 2, Factory: factory, Checkpoint: probe.checkpointer(nil, nil)}
			ds, err := pool.ExecuteRuns(context.Background(), specs, channels)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("core: shard %d: shard panic", victim)) {
				t.Fatalf("err = %v, want a shard %d panic", err, victim)
			}
			for s := 0; s < shards; s++ {
				if s != victim && strings.Contains(err.Error(), fmt.Sprintf("core: shard %d:", s)) {
					t.Errorf("shard %d failed too: %v", s, err)
				}
			}
			if len(ds.Runs) != len(specs) {
				t.Fatalf("%d runs, want %d", len(ds.Runs), len(specs))
			}
			for ri, run := range ds.Runs {
				want := len(channels)
				if ri >= tc.measured {
					want -= subset
				}
				if len(run.Outcomes) != want {
					t.Errorf("run %s: %d channel outcomes, want %d", run.Name, len(run.Outcomes), want)
				}
			}
		})
	}
}
