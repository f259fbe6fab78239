package hbbtvlab

import (
	"context"
	"errors"
	"fmt"
	"os"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the crash-safe face of the campaign API: ExecuteResumable
// and ExecuteShardResumable run the same measurements as ExecuteRuns and
// ExecuteShard, but journal every completed (shard, run) cell to a
// write-ahead checkpoint file as they go. A campaign killed at any point
// — SIGKILL included — restarts with Resume set, replays the journaled
// prefix instead of re-measuring it, and finishes with a Dataset whose
// Digest is byte-identical to an uninterrupted run's. The journal is
// self-describing: resuming with different study parameters, topology,
// run specs, or channel order is rejected with an error naming the first
// differing field (see store.Checkpoint.Validate).

// CheckpointOptions configure the write-ahead checkpoint journal of a
// resumable campaign.
type CheckpointOptions struct {
	// Path is the journal file. A cold start (Resume false) requires the
	// path not to exist; a resume requires it to exist and to describe
	// the same study.
	Path string
	// Resume loads the journal at Path, truncates any torn tail left by
	// a crash mid-append, replays the completed cells, and continues the
	// campaign from where it stopped.
	Resume bool
	// SyncEvery is the fsync cadence in cells: the journal file is
	// fsync'd after every SyncEvery-th appended cell (and always on
	// Close). Values below 1 sync after every cell — the safest and the
	// default. A larger cadence trades the last few cells' durability
	// for fewer fsyncs.
	SyncEvery int
}

// ExecuteResumable is ExecuteRunsContext with a write-ahead checkpoint
// journal. Every completed (shard, run) cell is committed to the journal
// before the shard proceeds, so a killed campaign loses at most the cells
// that were in flight. Restarting with co.Resume replays the journaled
// cells and measures only the remainder; the finished dataset's Digest is
// byte-identical to an uninterrupted run's at any Parallelism. The
// paper's one-shard procedure (Parallelism 0) is resumable too: its cells
// are its runs.
func (s *Study) ExecuteResumable(ctx context.Context, co CheckpointOptions) (*store.Dataset, error) {
	return s.campaign(ctx, s.opts.Runs, s.opts.shards(), -1, &co)
}

// ExecuteShardResumable is ExecuteShardContext with a write-ahead
// checkpoint journal, for fleet collectors that may be killed mid-shard.
// The journal records the fleet topology (shard i of N), so it can only
// resume the same shard of the same study; the resumed shard dataset —
// manifest included — is byte-identical to an uninterrupted collector's,
// and merges (Merge, hbbtv-merge) exactly like one.
func (s *Study) ExecuteShardResumable(ctx context.Context, shard, of int, co CheckpointOptions) (*store.Dataset, error) {
	return s.executeShard(ctx, shard, of, &co)
}

// checkpointHeader builds the self-describing journal header for this
// study: the parameter fingerprint, the engine topology (shards, and the
// fleet shard index or -1 for an in-process campaign), the run names in
// order, and the canonical channel order. Resume validates a loaded
// journal against exactly this value.
func (s *Study) checkpointHeader(channels []*dvb.Service, shards, fleetShard int) (*store.Checkpoint, error) {
	params, err := s.studyParams()
	if err != nil {
		return nil, err
	}
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}
	runs := make([]store.RunName, len(s.opts.Runs))
	for i, spec := range s.opts.Runs {
		runs[i] = spec.Name
	}
	return &store.Checkpoint{
		Params:       params,
		Shards:       shards,
		FleetShard:   fleetShard,
		Runs:         runs,
		ChannelOrder: order,
		OrderDigest:  store.ChannelOrderDigest(order),
	}, nil
}

// openJournal opens the campaign's checkpoint journal: a cold start
// creates it (refusing to clobber an existing file), a resume loads it,
// truncates any torn tail, and validates it against the study at hand.
// The returned Checkpoint carries the journaled cells (none on a cold
// start).
func openJournal(co CheckpointOptions, want *store.Checkpoint) (*store.Checkpoint, *store.CheckpointJournal, error) {
	if co.Path == "" {
		return nil, nil, errors.New("hbbtvlab: checkpoint: journal path is empty")
	}
	if co.Resume {
		cp, journal, err := store.ResumeJournal(co.Path, co.SyncEvery)
		if err != nil {
			return nil, nil, fmt.Errorf("hbbtvlab: resume checkpoint %s: %w", co.Path, err)
		}
		if err := cp.Validate(want); err != nil {
			journal.Close()
			return nil, nil, fmt.Errorf("hbbtvlab: resume checkpoint %s: %w", co.Path, err)
		}
		return cp, journal, nil
	}
	if _, err := os.Stat(co.Path); err == nil {
		return nil, nil, fmt.Errorf("hbbtvlab: checkpoint %s already exists; pass Resume to continue it or remove it to start over", co.Path)
	}
	journal, err := store.CreateJournal(co.Path, want, co.SyncEvery)
	if err != nil {
		return nil, nil, fmt.Errorf("hbbtvlab: create checkpoint %s: %w", co.Path, err)
	}
	return want, journal, nil
}

// checkpointer wires the loaded journal into the engine: completed cells
// grouped per shard for replay, world capture/restore through the
// study's shard-world registry, and commits straight to the journal,
// whose Append is safe for the shards' concurrent commits.
func (s *Study) checkpointer(cp *store.Checkpoint, journal *store.CheckpointJournal) *core.Checkpointer {
	byShard := make(map[int][]*store.CheckpointCell)
	for _, cell := range cp.Cells {
		byShard[cell.Shard] = append(byShard[cell.Shard], cell)
	}
	return &core.Checkpointer{
		Completed: func(shard int) []*store.CheckpointCell { return byShard[shard] },
		CaptureWorld: func(shard int) []store.TrackerState {
			if w := s.shardWorld(shard); w != nil {
				return w.TrackerStates()
			}
			return nil
		},
		RestoreWorld: func(shard int, trackers []store.TrackerState) error {
			w := s.shardWorld(shard)
			if w == nil {
				return fmt.Errorf("hbbtvlab: shard %d: no world to restore", shard)
			}
			return w.RestoreTrackerStates(trackers)
		},
		Commit: journal.Append,
	}
}
