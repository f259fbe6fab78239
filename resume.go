package hbbtvlab

import (
	"errors"
	"fmt"
	"os"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the crash-safe face of the campaign API: a Plan with a
// Checkpoint runs the same measurements, but journals every completed
// (shard, run) cell to a write-ahead checkpoint file as it goes. A
// campaign killed at any point — SIGKILL included — restarts with Resume
// set, replays the journaled prefix instead of re-measuring it, and
// finishes with a Dataset whose Digest is byte-identical to an
// uninterrupted run's. The journal is self-describing: resuming with
// different study parameters, topology, run specs, or channel order is
// rejected with an error naming the first differing field (see
// store.Checkpoint.Validate).

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
// The journal fsyncs after every appended cell. The returned Checkpoint
// carries the journaled cells (none on a cold start).
func openJournal(co CheckpointOptions, want *store.Checkpoint) (*store.Checkpoint, *store.CheckpointJournal, error) {
	if co.Path == "" {
		return nil, nil, errors.New("hbbtvlab: checkpoint: journal path is empty")
	}
	if co.Resume {
		cp, journal, err := store.ResumeJournal(co.Path, 1)
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
	journal, err := store.CreateJournal(co.Path, want, 1)
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
