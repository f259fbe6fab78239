package store

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// mergeFlowsPerFlow is the flow merge mergeFlows replaced, kept as its
// reference: it files every flow under its channel one at a time.
func mergeFlowsPerFlow(channels []ChannelInfo, pos func(string) int, shards []*RunData) []*proxy.Flow {
	byChannel := make(map[string][]*proxy.Flow)
	var unattributed, flows []*proxy.Flow
	for _, s := range shards {
		if s == nil {
			continue
		}
		for _, f := range s.Flows {
			if f.Channel == "" {
				unattributed = append(unattributed, f)
				continue
			}
			byChannel[f.Channel] = append(byChannel[f.Channel], f)
		}
	}
	for _, ci := range channels {
		flows = append(flows, byChannel[ci.Name]...)
		delete(byChannel, ci.Name)
	}
	if len(byChannel) > 0 {
		rest := make([]string, 0, len(byChannel))
		for name := range byChannel {
			rest = append(rest, name)
		}
		sort.Slice(rest, func(a, b int) bool {
			pa, pb := pos(rest[a]), pos(rest[b])
			if pa != pb {
				return pa < pb
			}
			return rest[a] < rest[b]
		})
		for _, name := range rest {
			flows = append(flows, byChannel[name]...)
		}
	}
	flows = append(flows, unattributed...)
	for i, f := range flows {
		f.ID = int64(i + 1)
	}
	return flows
}

// orderShard builds a shard that lists channels and records one flow per
// entry of flowChannels, each with a path naming the shard and its index.
func orderShard(shard int, channels []string, flowChannels ...string) *RunData {
	run := &RunData{Name: RunGeneral}
	for _, c := range channels {
		run.Channels = append(run.Channels, ChannelInfo{Name: c})
	}
	for i, c := range flowChannels {
		run.Flows = append(run.Flows, &proxy.Flow{
			ID:      int64(1000*shard + i),
			URL:     &url.URL{Scheme: "http", Host: "t.example", Path: fmt.Sprintf("/s%d/f%d", shard, i)},
			Channel: c,
		})
	}
	return run
}

// checkMergeOrder merges shards with MergeRunShards and then with the
// per-flow reference over the merged channel list, and fails unless both
// give the same flows in the same order with the same IDs.
func checkMergeOrder(t *testing.T, order []string, shards []*RunData) {
	t.Helper()
	merged := MergeRunShards(order, shards, nil)
	got := append([]*proxy.Flow(nil), merged.Flows...)
	gotIDs := make([]int64, len(got))
	for i, f := range got {
		gotIDs[i] = f.ID
	}
	rank := make(map[string]int, len(order))
	for i, name := range order {
		rank[name] = i
	}
	pos := func(name string) int {
		if i, ok := rank[name]; ok {
			return i
		}
		return len(order)
	}
	want := mergeFlowsPerFlow(merged.Channels, pos, shards)
	if len(got) != len(want) {
		t.Fatalf("merged %d flows, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || gotIDs[i] != want[i].ID {
			t.Fatalf("flow %d is %s (ID %d), reference %s (ID %d)",
				i, got[i].URL.Path, gotIDs[i], want[i].URL.Path, want[i].ID)
		}
	}
}

// TestMergeRunShardsFlowOrder: the merge, which moves each shard's flows in
// runs of one channel, orders flows exactly as filing them one at a time
// does, on interleavings a run-wise walk could get wrong: a Referer-
// corrected flow of the previous channel between one channel's flows,
// unattributed flows between attributed ones, and flows of channels
// missing from the merged channel list, in and outside the canonical
// order. A sweep of seeded random layouts follows.
func TestMergeRunShardsFlowOrder(t *testing.T) {
	order := []string{"A", "B", "C", "D", "E", "F"}
	shards := []*RunData{
		// A then D; after the switch to D, one flow is re-attributed to A.
		orderShard(0, []string{"A", "D"}, "A", "A", "D", "A", "D", "D"),
		// Unattributed flows between B's flows and E's.
		orderShard(1, []string{"B", "E"}, "", "B", "", "", "B", "E", "", "E"),
		// C is listed; F is in the canonical order but missing from the
		// channel list, Y and X are in neither.
		orderShard(2, []string{"C"}, "C", "Y", "F", "C", "X", "", "Y", "F"),
	}
	checkMergeOrder(t, order, shards)
	checkMergeOrder(t, order, []*RunData{nil, shards[2], nil, shards[0], shards[1]})

	rng := rand.New(rand.NewSource(7))
	names := []string{"", "A", "B", "C", "D", "E", "F", "X", "Y"}
	for round := 0; round < 200; round++ {
		var layout []*RunData
		for s := 0; s < 1+rng.Intn(4); s++ {
			if rng.Intn(5) == 0 {
				layout = append(layout, nil)
				continue
			}
			var listed, recorded []string
			for _, c := range order {
				if rng.Intn(3) == 0 {
					listed = append(listed, c)
				}
			}
			for f := rng.Intn(12); f > 0; f-- {
				recorded = append(recorded, names[rng.Intn(len(names))])
			}
			layout = append(layout, orderShard(len(layout), listed, recorded...))
		}
		if len(layout) < 2 {
			continue // a lone shard is returned unmerged
		}
		checkMergeOrder(t, order, layout)
	}
}
