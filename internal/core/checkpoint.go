package core

import (
	"fmt"
	"sort"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file is the engine side of the checkpoint/resume layer: capturing
// a framework's cumulative state at a run boundary (the only boundary at
// which the engine's state is small — between runs the recorder is about
// to be reset, the browser state wiped, and the clock re-set absolutely
// by the next ExecuteRunContext) and fast-forwarding a freshly built
// framework back to that state. World-side state (tracker services) is
// captured by the study layer, which owns the worlds; the Checkpointer
// hooks on Pool stitch the two halves together.

// CaptureState captures the framework's cumulative engine state right
// after run (the *store.RunData just returned by ExecuteRunContext)
// completed. The returned CellState carries everything a resumed
// framework needs beyond the run data itself; its Trackers field is left
// for the caller (world state is not the framework's).
func (f *Framework) CaptureState(run *store.RunData) store.CellState {
	st := store.CellState{
		FrameworkDraws: f.src.Draws(),
		TVDraws:        f.TV.RNGDraws(),
		RecorderNextID: f.Recorder.NextID(),
	}
	// The TV keeps logging after the run's data is collected (the
	// power-off entry); the tail beyond run.Logs must survive the resume
	// because the next run's collection includes the full history.
	logs := f.TV.Logs()
	if len(logs) > len(run.Logs) {
		st.TVLogTail = logs[len(run.Logs):]
	}
	if len(f.failStreak) > 0 {
		st.FailStreak = make(map[string]int, len(f.failStreak))
		for name, n := range f.failStreak {
			st.FailStreak[name] = n
		}
	}
	if len(f.quarantined) > 0 {
		st.Quarantined = make([]string, 0, len(f.quarantined))
		for name := range f.quarantined {
			st.Quarantined = append(st.Quarantined, name)
		}
		sort.Strings(st.Quarantined)
	}
	return st
}

// RestoreState fast-forwards a freshly built framework to a checkpointed
// cell state. logs is the TV's full accumulated log history as of the
// capture (the cell's Data.Logs plus the state's TVLogTail). The clock
// needs no restoration — ExecuteRunContext sets it absolutely — and the
// browser state none either (it is wiped at every run start). Restoring
// onto a framework that has already executed runs fails: state only
// fast-forwards.
func (f *Framework) RestoreState(st store.CellState, logs []webos.LogEntry) error {
	if err := f.src.FastForward(st.FrameworkDraws); err != nil {
		return fmt.Errorf("core: restore framework state: %w", err)
	}
	if err := f.TV.RestoreSession(st.TVDraws, logs); err != nil {
		return fmt.Errorf("core: restore framework state: %w", err)
	}
	if err := f.Recorder.RestoreNextID(st.RecorderNextID); err != nil {
		return fmt.Errorf("core: restore framework state: %w", err)
	}
	f.failStreak = make(map[string]int, len(st.FailStreak))
	for name, n := range st.FailStreak {
		f.failStreak[name] = n
	}
	f.quarantined = make(map[string]bool, len(st.Quarantined))
	for _, name := range st.Quarantined {
		f.quarantined[name] = true
	}
	return nil
}

// Checkpointer wires crash-safe persistence into the sharded engine. All
// hooks must be safe for concurrent use — shards commit from their own
// worker goroutines.
type Checkpointer struct {
	// Completed returns the shard's resume cells: the contiguous prefix
	// of runs already measured (in run-spec order), or nil for a cold
	// start. The engine replays their Data instead of re-measuring and
	// restores the last cell's state before executing the remainder.
	Completed func(shard int) []*store.CheckpointCell
	// CaptureWorld returns the shard's world handler state (tracker
	// services, in install order) at the moment of the call.
	CaptureWorld func(shard int) []store.TrackerState
	// RestoreWorld fast-forwards the shard's freshly built world to a
	// checkpointed handler state.
	RestoreWorld func(shard int, trackers []store.TrackerState) error
	// Commit makes one freshly completed cell durable. An error aborts
	// the shard — continuing past a failed commit would produce runs the
	// journal never saw.
	Commit func(cell *store.CheckpointCell) error
}

// completed returns how many of the shard's runs its checkpoint holds;
// the scheduler ranks a shard by its cells left before Resume replays
// them. A nil Checkpointer holds none.
func (cp *Checkpointer) completed(shard int) int {
	if cp == nil || cp.Completed == nil {
		return 0
	}
	return len(cp.Completed(shard))
}

// Resume replays the shard's completed cells into out (indexed by run)
// and fast-forwards fw to the last cell's state. It returns how many
// runs were replayed. A nil Checkpointer resumes nothing.
func (cp *Checkpointer) Resume(shard int, specs []RunSpec, fw *Framework, out []*store.RunData) (int, error) {
	if cp == nil || cp.Completed == nil {
		return 0, nil
	}
	cells := cp.Completed(shard)
	if len(cells) == 0 {
		return 0, nil
	}
	if len(cells) > len(specs) {
		return 0, fmt.Errorf("core: shard %d: checkpoint has %d cells but the study has %d runs", shard, len(cells), len(specs))
	}
	for i, cell := range cells {
		if cell.RunIndex != i {
			return 0, fmt.Errorf("core: shard %d: checkpoint cells are not a contiguous run prefix (cell %d is run %d)", shard, i, cell.RunIndex)
		}
		if cell.Run != specs[i].Name {
			return 0, fmt.Errorf("core: shard %d: checkpoint cell %d is run %s, spec says %s", shard, i, cell.Run, specs[i].Name)
		}
		out[i] = cell.Data
	}
	// Only the last cell's state matters: every CellState is cumulative.
	last := cells[len(cells)-1]
	logs := append(append([]webos.LogEntry(nil), last.Data.Logs...), last.State.TVLogTail...)
	if err := fw.RestoreState(last.State, logs); err != nil {
		return 0, fmt.Errorf("core: shard %d: %w", shard, err)
	}
	if cp.RestoreWorld != nil {
		if err := cp.RestoreWorld(shard, last.State.Trackers); err != nil {
			return 0, fmt.Errorf("core: shard %d: %w", shard, err)
		}
	}
	return len(cells), nil
}

// CommitCell captures and persists the cell for a freshly completed run.
// A nil Checkpointer commits nothing.
func (cp *Checkpointer) CommitCell(shard, runIndex int, spec RunSpec, fw *Framework, run *store.RunData) error {
	if cp == nil || cp.Commit == nil {
		return nil
	}
	st := fw.CaptureState(run)
	if cp.CaptureWorld != nil {
		st.Trackers = cp.CaptureWorld(shard)
	}
	return cp.Commit(&store.CheckpointCell{
		Shard:    shard,
		RunIndex: runIndex,
		Run:      spec.Name,
		State:    st,
		Data:     run,
	})
}
