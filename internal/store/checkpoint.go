package store

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file is the checkpoint half of the crash-safe campaign layer: the
// on-disk format that lets a killed collector resume to a Dataset.Digest
// byte-identical to an uninterrupted run.
//
// A checkpoint is a set of completed cells. One cell is one (shard, run)
// unit of work — the full RunData the shard's framework produced for that
// run, plus the CellState needed to fast-forward a freshly built
// framework and world to the exact engine state the producer held when
// the run finished (rng positions, flow-ID counter, TV log history,
// retry/quarantine bookkeeping, tracker handler state). Because the
// engine is deterministic, replaying the cell data and restoring the cell
// state is indistinguishable from having measured the prefix.
//
// On disk a checkpoint is an ordinary snapshot container, written and read
// by the same writeContainer and readContainer as a dataset snapshot
// (snapshot.go). Its lead section is secCheckpoint, holding the JSON
// metadata — study params fingerprint, topology, channel order, and the
// per-cell states — and one secRun section per cell carries its RunData.
// The metadata must stay the first section: it puts the identity block at
// a fixed offset. The dataset loader ignores the checkpoint tag, so
// store.Load opens a checkpoint file as a plain dataset of its cell runs.
//
// The sidecar journal (journal.go) appends one single-cell checkpoint
// per completed cell, CRC-framed and fsync'd, which is what survives
// SIGKILL; this file defines the cell format both layers share.

// TrackerState is the captured mutable handler state of one synthetic
// tracker service: the count of rng values it has drawn and its short-ID
// counter. Keyed by position in the world's deterministic install order;
// Domain is carried for validation (a few domains are installed twice, so
// the domain alone is not a key).
type TrackerState struct {
	Domain string `json:"domain"`
	Draws  uint64 `json:"draws,omitempty"`
	NextID int64  `json:"nextId,omitempty"`
}

// CellState is everything beyond the RunData itself that a resumed
// framework must restore at a run boundary to continue byte-identically:
// the cumulative state of the shard's deterministic machinery as of the
// end of the cell's run.
type CellState struct {
	// FrameworkDraws is the framework rng's draw count (channel-order
	// permutations and interaction scripts consume it).
	FrameworkDraws uint64 `json:"frameworkDraws"`
	// TVDraws is the TV identifier rng's draw count (user and session
	// IDs).
	TVDraws uint64 `json:"tvDraws"`
	// RecorderNextID is the proxy recorder's next flow ID — flow IDs run
	// across runs within a shard and are not reset by Recorder.Reset.
	RecorderNextID int64 `json:"recorderNextId"`
	// TVLogTail holds the TV log entries recorded after the run's data
	// was collected (the trailing power-off entry): the TV accumulates
	// logs across runs, so a resume seeds the TV with the cell's
	// Data.Logs plus this tail.
	TVLogTail []webos.LogEntry `json:"tvLogTail,omitempty"`
	// FailStreak and Quarantined capture the retry policy's cross-run
	// bookkeeping: consecutive failed runs per channel, and the channels
	// already benched. A channel quarantined before a kill must stay
	// quarantined after the resume — no bonus retries.
	FailStreak  map[string]int `json:"failStreak,omitempty"`
	Quarantined []string       `json:"quarantined,omitempty"`
	// Trackers is the world's handler state in install order.
	Trackers []TrackerState `json:"trackers,omitempty"`
}

// CheckpointCell is one completed (shard, run) unit of work.
type CheckpointCell struct {
	// Shard is the engine shard that produced the cell — the in-process
	// shard index, or the fleet shard for -shard i/N collectors.
	Shard int `json:"shard"`
	// RunIndex is the run's position in the study's run-spec order.
	RunIndex int `json:"runIndex"`
	// Run is the run's name (validated against the spec on resume).
	Run RunName `json:"run"`
	// State is the shard's cumulative engine state at the end of the run.
	State CellState `json:"state"`
	// Data is the run's full measurement data, carried as a run section
	// in the container rather than in the JSON metadata.
	Data *RunData `json:"-"`
}

// Checkpoint is a self-describing set of completed cells. Its identity
// block (Params through OrderDigest) pins the campaign the cells belong
// to, so a resume with mismatched study parameters or topology is
// rejected with the differing field named instead of silently producing a
// dataset no uninterrupted run could have measured.
type Checkpoint struct {
	// Params is the study fingerprint — the same one the fleet layer's
	// shard manifests carry.
	Params StudyParams `json:"params"`
	// Shards is the engine's shard count (Options.Shards for in-process
	// campaigns, the fleet width for -shard collectors).
	Shards int `json:"shards"`
	// FleetShard is the fleet partition index for -shard i/N collectors,
	// or -1 for in-process campaigns (which own every shard).
	FleetShard int `json:"fleetShard"`
	// Runs lists the run names in spec order; cell RunIndex values index
	// into it.
	Runs []RunName `json:"runs"`
	// ChannelOrder is the canonical channel order with its digest — same
	// contract as ShardManifest.
	ChannelOrder []string `json:"channelOrder"`
	OrderDigest  string   `json:"orderDigest"`
	// Cells are the completed cells, in commit order.
	Cells []*CheckpointCell `json:"cells,omitempty"`
}

// Validate checks that the loaded checkpoint describes the same campaign
// as want (a header built from the resuming study's configuration). The
// first mismatching field is named in the error.
func (cp *Checkpoint) Validate(want *Checkpoint) error {
	if field := cp.Params.diff(want.Params); field != "" {
		return fmt.Errorf("store: checkpoint: study parameter mismatch: %s differs from the checkpointed campaign", field)
	}
	if cp.Shards != want.Shards {
		return fmt.Errorf("store: checkpoint: shard count mismatch: checkpoint has %d, study wants %d", cp.Shards, want.Shards)
	}
	if cp.FleetShard != want.FleetShard {
		return fmt.Errorf("store: checkpoint: fleet shard mismatch: checkpoint is for shard %s, study wants %s",
			fleetShardLabel(cp.FleetShard), fleetShardLabel(want.FleetShard))
	}
	if len(cp.Runs) != len(want.Runs) {
		return fmt.Errorf("store: checkpoint: run specs mismatch: checkpoint has %d runs, study wants %d", len(cp.Runs), len(want.Runs))
	}
	for i, name := range cp.Runs {
		if name != want.Runs[i] {
			return fmt.Errorf("store: checkpoint: run specs mismatch: run %d is %s in the checkpoint, %s in the study", i, name, want.Runs[i])
		}
	}
	if cp.OrderDigest != want.OrderDigest {
		return fmt.Errorf("store: checkpoint: channel order mismatch: checkpoint digest %s, study digest %s", cp.OrderDigest, want.OrderDigest)
	}
	return nil
}

func fleetShardLabel(shard int) string {
	if shard < 0 {
		return "the whole campaign (in-process)"
	}
	return fmt.Sprintf("%d", shard)
}

// checkCell validates a cell's coordinates against the checkpoint header.
func (cp *Checkpoint) checkCell(c *CheckpointCell) error {
	if c.RunIndex < 0 || c.RunIndex >= len(cp.Runs) {
		return fmt.Errorf("store: checkpoint: cell run index %d out of range [0, %d)", c.RunIndex, len(cp.Runs))
	}
	if c.Run != cp.Runs[c.RunIndex] {
		return fmt.Errorf("store: checkpoint: cell for run %d is named %s, spec says %s", c.RunIndex, c.Run, cp.Runs[c.RunIndex])
	}
	if c.Shard < 0 || (cp.Shards > 0 && c.Shard >= cp.Shards) {
		return fmt.Errorf("store: checkpoint: cell shard %d out of range [0, %d)", c.Shard, cp.Shards)
	}
	if c.Data == nil {
		return fmt.Errorf("store: checkpoint: cell (shard %d, run %s) has no data section", c.Shard, c.Run)
	}
	if c.Data.Name != c.Run {
		return fmt.Errorf("store: checkpoint: cell (shard %d, run %s) carries data for run %s", c.Shard, c.Run, c.Data.Name)
	}
	return nil
}

// WriteCheckpoint writes the checkpoint as a snapshot container: the
// metadata section first, then the shared tables, then one run section
// per cell in cell order. The output is deterministic for a given
// checkpoint.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	runs := make([]*RunData, len(cp.Cells))
	for i, c := range cp.Cells {
		if c.Data == nil {
			return fmt.Errorf("store: checkpoint: cell (shard %d, run %s) has no data", c.Shard, c.Run)
		}
		runs[i] = c.Data
	}
	return writeContainer(w, []jsonSection{{secCheckpoint, cp}}, runs, nil)
}

// decodeCheckpoint decodes a checkpoint container written by
// WriteCheckpoint from memory (the journal reader calls this once per
// frame), reattaching each cell's run data. Truncated or corrupted input
// fails with a wrapped error naming the damage; it never yields a
// checkpoint with fewer cells than the metadata promises.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	runs, other, err := readContainer(raw, nil)
	if err != nil {
		return nil, err
	}
	meta, ok := other[secCheckpoint]
	if !ok {
		return nil, fmt.Errorf("store: checkpoint: no checkpoint section (not a checkpoint file?)")
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(meta, cp); err != nil {
		return nil, fmt.Errorf("store: checkpoint: metadata: %w", err)
	}
	if len(runs) != len(cp.Cells) {
		return nil, fmt.Errorf("store: checkpoint: truncated: metadata promises %d cells, found %d run sections", len(cp.Cells), len(runs))
	}
	for i, c := range cp.Cells {
		if c == nil {
			return nil, fmt.Errorf("store: checkpoint: metadata: cell %d is null", i)
		}
		c.Data = runs[i]
		if err := cp.checkCell(c); err != nil {
			return nil, err
		}
	}
	return cp, nil
}
