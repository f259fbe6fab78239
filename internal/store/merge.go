package store

import (
	"sort"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file is the deterministic merge layer of the sharded measurement
// engine: each worker shard measures a disjoint subset of a run's channels
// on its own isolated framework and produces one RunData; MergeRunShards
// recombines those shard datasets into a single RunData whose contents are
// ordered by the canonical channel list — never by shard completion order —
// so the merged dataset is byte-identical for every worker count.

// MergeRunShards combines per-shard RunData of the same logical run into
// one RunData. order is the canonical channel-name order (the funnel's
// output order); shards is indexed by shard number and may contain nil
// entries for shards that produced nothing (cancelled or failed).
//
// Ordering rules:
//   - Channels, attributed Flows, and Screenshots are grouped per channel
//     and emitted in canonical channel order (within one channel, the
//     shard-recorded order is preserved).
//   - Unattributed flows, cookies, storage items, and logs are concatenated
//     in shard-index order (each shard's slice is already deterministic).
//   - Flow IDs are reassigned sequentially after the merge so they stay
//     unique and independent of shard layout.
//
// Every rule depends only on shard index and canonical order, so the result
// is independent of the order in which shards finished.
//
// A lone shard (len(shards) == 1) is the whole run and is returned
// unchanged: a one-shard campaign keeps the paper's single-timeline
// procedure byte for byte — visit order and flow IDs included — whether
// it is merged in process or by hbbtv-merge.
//
// tele (typically the engine-controller handle) receives a merge span
// named after the run and the per-merge counters; a nil handle records
// nothing.
func MergeRunShards(order []string, shards []*RunData, tele *telemetry.Shard) *RunData {
	mergeSpan := tele.StartSpan(telemetry.SpanMerge, "")
	merged := mergeRunShards(order, shards)
	if mergeSpan.Active() {
		mergeSpan.SetName(string(merged.Name))
	}
	mergeSpan.End()
	if tele.Active() {
		tele.Counter("merge_runs").Inc()
		tele.Counter("merge_channels").Add(uint64(len(merged.Channels)))
		tele.Counter("merge_flows").Add(uint64(len(merged.Flows)))
	}
	return merged
}

func mergeRunShards(order []string, shards []*RunData) *RunData {
	if len(shards) == 1 && shards[0] != nil {
		return shards[0]
	}
	merged := &RunData{}
	for _, s := range shards {
		if s == nil {
			continue
		}
		if merged.Name == "" {
			merged.Name, merged.Date = s.Name, s.Date
		}
		merged.RecoveredPanics += s.RecoveredPanics
	}

	rank := make(map[string]int, len(order))
	for i, name := range order {
		rank[name] = i
	}
	pos := func(name string) int {
		if i, ok := rank[name]; ok {
			return i
		}
		return len(order) // unknown channels sort after the canonical list
	}

	// Channels in canonical order. Shards own disjoint subsets, so a stable
	// sort by canonical rank fully determines the result.
	for _, s := range shards {
		if s != nil {
			merged.Channels = append(merged.Channels, s.Channels...)
		}
	}
	sort.SliceStable(merged.Channels, func(a, b int) bool {
		return pos(merged.Channels[a].Name) < pos(merged.Channels[b].Name)
	})

	merged.Flows = mergeFlows(merged.Channels, pos, shards)

	// Screenshots grouped by channel in canonical order, like flows.
	shotsByChannel := make(map[string][]webos.Screenshot)
	var shotOrder []string
	for _, s := range shards {
		if s == nil {
			continue
		}
		for _, shot := range s.Screenshots {
			if _, seen := shotsByChannel[shot.Channel]; !seen {
				shotOrder = append(shotOrder, shot.Channel)
			}
			shotsByChannel[shot.Channel] = append(shotsByChannel[shot.Channel], shot)
		}
	}
	sort.SliceStable(shotOrder, func(a, b int) bool {
		pa, pb := pos(shotOrder[a]), pos(shotOrder[b])
		if pa != pb {
			return pa < pb
		}
		return shotOrder[a] < shotOrder[b]
	})
	for _, name := range shotOrder {
		merged.Screenshots = append(merged.Screenshots, shotsByChannel[name]...)
	}

	// Outcomes: shards own disjoint channel subsets, so like Channels a
	// stable sort by canonical rank fully determines the merged order.
	for _, s := range shards {
		if s != nil {
			merged.Outcomes = append(merged.Outcomes, s.Outcomes...)
		}
	}
	sort.SliceStable(merged.Outcomes, func(a, b int) bool {
		pa, pb := pos(merged.Outcomes[a].Channel), pos(merged.Outcomes[b].Channel)
		if pa != pb {
			return pa < pb
		}
		return merged.Outcomes[a].Channel < merged.Outcomes[b].Channel
	})

	// Cookie jars, localStorage, and logs concatenate in shard-index order;
	// each shard's snapshot is already sorted (jar/storage) or timeline-
	// ordered (logs) deterministically.
	for _, s := range shards {
		if s == nil {
			continue
		}
		merged.Cookies = append(merged.Cookies, s.Cookies...)
		merged.Storage = append(merged.Storage, s.Storage...)
		merged.Logs = append(merged.Logs, s.Logs...)
	}
	return merged
}

// mergeFlows merges the shards' flows: attributed ones grouped by channel,
// in the order of channels and then, for channels missing from it, by pos
// and name; unattributed ones after, in shard-index order. It renumbers
// them from 1. A shard records each channel's flows in runs, so it moves
// whole runs: per channel, the runs of every shard in shard-index order.
func mergeFlows(channels []ChannelInfo, pos func(string) int, shards []*RunData) []*proxy.Flow {
	byChannel := make(map[string][][]*proxy.Flow)
	var unattributed [][]*proxy.Flow
	total := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		total += len(s.Flows)
		for lo := 0; lo < len(s.Flows); {
			ch := s.Flows[lo].Channel
			hi := lo + 1
			for hi < len(s.Flows) && s.Flows[hi].Channel == ch {
				hi++
			}
			if ch == "" {
				unattributed = append(unattributed, s.Flows[lo:hi])
			} else {
				byChannel[ch] = append(byChannel[ch], s.Flows[lo:hi])
			}
			lo = hi
		}
	}
	if total == 0 {
		return nil
	}
	flows := make([]*proxy.Flow, 0, total)
	appendRuns := func(runs [][]*proxy.Flow) {
		for _, run := range runs {
			flows = append(flows, run...)
		}
	}
	for _, ci := range channels {
		appendRuns(byChannel[ci.Name])
		delete(byChannel, ci.Name)
	}
	// Flows attributed to a channel missing from the merged channel list
	// (possible after mid-run cancellation) keep canonical order too.
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
		appendRuns(byChannel[name])
	}
	appendRuns(unattributed)
	for i, f := range flows {
		f.ID = int64(i + 1)
	}
	return flows
}
