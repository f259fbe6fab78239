package hbbtvlab

import (
	"errors"
	"fmt"
	"os"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
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

// openJournal opens the checkpoint journal of campaign id, measured as
// fleet shard fleetShard (-1 for an in-process campaign). Its header is
// id with the fleet shard and the run names in order: a cold start
// creates the journal with it (refusing to clobber an existing file), a
// resume loads the journal, truncates any torn tail, and validates it
// against exactly this header. The journal fsyncs after every appended
// cell. The returned Checkpoint carries the journaled cells (none on a
// cold start).
func (s *Study) openJournal(co CheckpointOptions, id store.Campaign, fleetShard int) (*store.Checkpoint, *store.CheckpointJournal, error) {
	if co.Path == "" {
		return nil, nil, errors.New("hbbtvlab: checkpoint: journal path is empty")
	}
	want := &store.Checkpoint{Campaign: id, FleetShard: fleetShard, Runs: make([]store.RunName, len(s.opts.Runs))}
	for i, spec := range s.opts.Runs {
		want.Runs[i] = spec.Name
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
