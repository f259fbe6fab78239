package hbbtvlab

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// sharedCampaigns holds campaigns built once per test binary for tests that
// only read their datasets, with each dataset's digest taken right after
// the build.
var sharedCampaigns = struct {
	sync.Mutex
	ds     map[string]*store.Dataset
	digest map[string]string
}{ds: map[string]*store.Dataset{}, digest: map[string]string{}}

// sharedCampaign returns the named read-only campaign, building it with
// build on first use, and its digest at build time. Callers must not modify
// the dataset; TestDigestGolden re-digests every shared campaign it reads.
func sharedCampaign(t *testing.T, name string, build func(*testing.T) *store.Dataset) (*store.Dataset, string) {
	t.Helper()
	sharedCampaigns.Lock()
	defer sharedCampaigns.Unlock()
	if ds, ok := sharedCampaigns.ds[name]; ok {
		return ds, sharedCampaigns.digest[name]
	}
	ds := build(t)
	digest := digestOrFatal(t, ds)
	sharedCampaigns.ds[name] = ds
	sharedCampaigns.digest[name] = digest
	return ds, digest
}

// tableIWorld is the Table I golden world: seed 321 at scale 0.04, one
// shard, the paper's procedure.
func tableIWorld(t *testing.T) (*store.Dataset, string) {
	return sharedCampaign(t, "table1", func(t *testing.T) *store.Dataset {
		ds, err := NewStudy(Options{Seed: 321, Scale: 0.04, ProbeWatch: 20 * time.Second}).Execute(context.Background(), Plan{})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	})
}

// chaosWorld is the chaos suite's degraded campaign at two workers.
func chaosWorld(t *testing.T) (*store.Dataset, string) {
	return sharedCampaign(t, "chaos", func(t *testing.T) *store.Dataset {
		return runChaosStudy(t, chaosOptions(2))
	})
}

// TestDigestGolden pins the digests of the Table I golden world and of
// chaosOptions(2) to testdata/digest_seed321.golden, so a change that moves
// a dataset byte fails here, not only against a build of the parent.
// Regenerate deliberately with go test -run TestDigestGolden -update.
//
// On the clean one-shard campaign it also checks record-time header
// interning: within each run, flows share one header map per distinct
// header block.
func TestDigestGolden(t *testing.T) {
	table1, table1Digest := tableIWorld(t)
	_, chaosDigest := chaosWorld(t)
	got := fmt.Sprintf("table1 %s\nchaos-j2 %s\n", table1Digest, chaosDigest)

	golden := filepath.Join("testdata", "digest_seed321.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("campaign digests drifted from golden %s\n--- want\n%s--- got\n%s(run go test -run TestDigestGolden -update to accept)",
				golden, want, got)
		}
	}
	// The shared campaigns must still hash to their build-time digests:
	// a test that wrote to one would corrupt every later reader.
	sharedCampaigns.Lock()
	defer sharedCampaigns.Unlock()
	for name, ds := range sharedCampaigns.ds {
		if d := digestOrFatal(t, ds); d != sharedCampaigns.digest[name] {
			t.Errorf("shared campaign %q was modified by a test: digest %s, built as %s", name, d, sharedCampaigns.digest[name])
		}
	}

	for _, run := range table1.Runs {
		maps := make(map[uintptr]bool)
		blocks := make(map[string]bool)
		var key []byte
		for _, f := range run.Flows {
			for _, h := range []http.Header{f.RequestHeaders, f.ResponseHeaders} {
				if h == nil {
					continue
				}
				maps[reflect.ValueOf(h).Pointer()] = true
				key = proxy.AppendHeaderKey(key[:0], h)
				blocks[string(key)] = true
			}
		}
		if len(maps) != len(blocks) {
			t.Errorf("run %s: %d header maps for %d distinct header blocks over %d flows",
				run.Name, len(maps), len(blocks), len(run.Flows))
		}
	}
}
