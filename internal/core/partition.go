package core

import "github.com/hbbtvlab/hbbtvlab/internal/dvb"

// The channel partition of the measurement engine, shared by the whole
// campaign (Pool.ExecuteRuns) and one fleet collector's shard
// (Pool.ExecuteShard): both must assign canonical channel index i to
// shard i % EffectiveShards, or a fleet merge could never reproduce a
// single-process run byte for byte.

// EffectiveShards clamps a configured shard count to the channel count
// (no shard is empty in a single-process run) and to a minimum of 1;
// requested <= 0 selects DefaultShards.
func EffectiveShards(requested, channels int) int {
	shards := requested
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > channels {
		shards = channels
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// ShardSubset returns the channels the given shard owns under the strided
// partition: canonical index i belongs to shard i % shards, in canonical
// relative order. A shard index at or beyond the effective shard count
// owns nothing (a fleet sized larger than the channel list leaves its
// tail collectors idle).
func ShardSubset(channels []*dvb.Service, shard, shards int) []*dvb.Service {
	var subset []*dvb.Service
	for i := shard; i < len(channels); i += shards {
		subset = append(subset, channels[i])
	}
	return subset
}
