package hbbtvlab

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the in-process half of the crash-safety suite: it
// simulates SIGKILL by truncating the write-ahead journal at arbitrary
// byte offsets — exactly the file states a killed process leaves behind,
// since the journal is append-only — and asserts the resumed campaign's
// digest is byte-identical to an uninterrupted run's. The companion
// resume_chaos_test.go kills real hbbtv-measure processes.

// resumeStudy builds a fresh study for the chaos experiment. Every
// execution gets its own Study — frameworks accumulate state, and the
// point of the suite is that a resumed *fresh* process converges.
func resumeStudy(t *testing.T, opts Options) *Study {
	t.Helper()
	study, err := NewStudyChecked(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.SelectChannels(); err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	return study
}

func digestOrFatal(t *testing.T, ds *store.Dataset) string {
	t.Helper()
	if ds == nil {
		t.Fatal("nil dataset")
	}
	d, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// executeResumable runs a checkpointed campaign to completion and
// returns its dataset digest.
func executeResumable(t *testing.T, opts Options, co CheckpointOptions) string {
	t.Helper()
	study := resumeStudy(t, opts)
	ds, err := study.Execute(context.Background(), Plan{Checkpoint: &co})
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	return digestOrFatal(t, ds)
}

// truncateCopy writes the first n bytes of src to dst.
func truncateCopy(t *testing.T, src, dst string, n int64) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(raw)) {
		n = int64(len(raw))
	}
	if err := os.WriteFile(dst, raw[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeCheckpointedRunMatchesPlain: merely journaling a campaign
// must not change a byte of its dataset, at any worker count.
func TestResumeCheckpointedRunMatchesPlain(t *testing.T) {
	base := digestOrFatal(t, runChaosStudy(t, chaosOptions(1)))
	dir := t.TempDir()
	for _, p := range []int{1, 4} {
		path := filepath.Join(dir, "clean", "j"+string(rune('0'+p))+".journal")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		got := executeResumable(t, chaosOptions(p), CheckpointOptions{Path: path})
		if got != base {
			t.Fatalf("checkpointed run (j=%d) digest differs from plain run:\n  %s\n  %s", p, got, base)
		}
	}
}

// TestResumeDigestParityAfterKill is the tentpole acceptance test: the
// journal of a complete campaign is cut at seed-derived byte offsets
// (the exact file a SIGKILL'd process leaves, torn tail included), the
// campaign is resumed from the cut — twice, emulating a second kill
// during the resume — and the final digest must be byte-identical to
// the uninterrupted run for every worker count, faults on.
func TestResumeDigestParityAfterKill(t *testing.T) {
	base := digestOrFatal(t, runChaosStudy(t, chaosOptions(1)))
	dir := t.TempDir()

	full := filepath.Join(dir, "full.journal")
	if got := executeResumable(t, chaosOptions(2), CheckpointOptions{Path: full}); got != base {
		t.Fatalf("uninterrupted checkpointed digest %s != plain digest %s", got, base)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	// Seed-derived kill points, reported so a failure names its inputs
	// (same contract as the process-level chaos suite).
	const killSeed = int64(321)
	points := killPoints(killSeed, size, 3)
	t.Logf("kill seed %d, journal %d bytes, kill points %v", killSeed, size, points)

	for _, p := range []int{1, 2, 4, 8} {
		for ki, cut := range points {
			path := filepath.Join(dir, "killed.journal")
			truncateCopy(t, full, path, cut)

			// First resume — but cut ITS journal too (second kill) before
			// letting a final resume finish the campaign.
			study := resumeStudy(t, chaosOptions(p))
			ds, err := study.Execute(context.Background(), Plan{Checkpoint: &CheckpointOptions{Path: path, Resume: true}})
			if err != nil && !DegradedOnly(err) {
				t.Fatalf("j=%d kill %d at byte %d: first resume: %v", p, ki, cut, err)
			}
			if got := digestOrFatal(t, ds); got != base {
				t.Fatalf("j=%d kill %d at byte %d: resumed digest differs:\n  %s\n  %s", p, ki, cut, got, base)
			}

			second := cut + (size-cut)/2
			truncateCopy(t, path, path, second)
			got := executeResumable(t, chaosOptions(p), CheckpointOptions{Path: path, Resume: true})
			if got != base {
				t.Fatalf("j=%d kill %d: digest differs after second kill at byte %d:\n  %s\n  %s", p, ki, second, got, base)
			}
		}
	}
}

// TestResumeRejectsMismatchedStudy: a journal must only resume the exact
// campaign that wrote it; every divergence is rejected with the
// differing field named.
func TestResumeRejectsMismatchedStudy(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	executeResumable(t, chaosOptions(2), CheckpointOptions{Path: full})

	cases := []struct {
		name   string
		mutate func(o *Options)
		want   string
	}{
		{"seed", func(o *Options) { o.Seed = 999 }, "seed"},
		{"scale", func(o *Options) { o.Scale = 0.08 }, "scale"},
		{"fault config", func(o *Options) { o.Faults.Rate = 0.5 }, "fault config"},
		{"retry policy", func(o *Options) { o.Retry.MaxAttempts = 5 }, "retry policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := chaosOptions(2)
			tc.mutate(&opts)
			study := resumeStudy(t, opts)
			_, err := study.Execute(context.Background(), Plan{Checkpoint: &CheckpointOptions{Path: full, Resume: true}})
			if err == nil {
				t.Fatalf("resume with mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the differing field %q", err, tc.want)
			}
		})
	}

	// Mismatched worker counts are NOT a divergence — parallelism never
	// changes the dataset, so a journal written at -j 2 resumes at -j 8.
	got := executeResumable(t, chaosOptions(8), CheckpointOptions{Path: full, Resume: true})
	want := digestOrFatal(t, runChaosStudy(t, chaosOptions(1)))
	if got != want {
		t.Fatalf("resume at different worker count changed the digest:\n  %s\n  %s", got, want)
	}

	// A cold start must refuse to clobber an existing journal.
	study := resumeStudy(t, chaosOptions(2))
	if _, err := study.Execute(context.Background(), Plan{Checkpoint: &CheckpointOptions{Path: full}}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("cold start over an existing journal: %v", err)
	}
}

// TestResumeSerialProcedureAfterKill: the paper's procedure (Parallelism
// 0: one shard, measured on the study's own post-funnel framework) is a
// one-shard campaign, so its runs are checkpoint cells like any other.
// Its journal, cut at seed-derived byte offsets, must resume to the
// uninterrupted digest — also at a different worker count, since one
// shard is one shard at any Parallelism.
func TestResumeSerialProcedureAfterKill(t *testing.T) {
	opts := chaosOptions(0)
	opts.Shards = 0 // Parallelism 0 with no Shards: the one-shard procedure
	base := digestOrFatal(t, runChaosStudy(t, opts))
	dir := t.TempDir()

	full := filepath.Join(dir, "full.journal")
	if got := executeResumable(t, opts, CheckpointOptions{Path: full}); got != base {
		t.Fatalf("uninterrupted checkpointed digest %s != plain digest %s", got, base)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	const killSeed = int64(321)
	points := killPoints(killSeed, fi.Size(), 5)
	t.Logf("kill seed %d, journal %d bytes, kill points %v", killSeed, fi.Size(), points)

	for ki, cut := range points {
		path := filepath.Join(dir, "killed.journal")
		truncateCopy(t, full, path, cut)
		resumed := opts
		if ki == len(points)-1 {
			resumed.Parallelism, resumed.Shards = 2, 1
		}
		if got := executeResumable(t, resumed, CheckpointOptions{Path: path, Resume: true}); got != base {
			t.Fatalf("kill %d at byte %d (j=%d): resumed digest differs:\n  %s\n  %s",
				ki, cut, resumed.Parallelism, got, base)
		}
	}
}

// TestResumeQuarantineRoundTrip: a channel quarantined before the kill
// must stay quarantined after the resume — the retry policy's cross-run
// bookkeeping rides in the cell state, so the benched channel gets no
// bonus retries in the runs measured after the resume.
func TestResumeQuarantineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	base := executeResumable(t, chaosOptions(2), CheckpointOptions{Path: full})

	cp, _, err := store.LoadJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	// Find a cell that carries quarantine state with runs still ahead of
	// it — the interesting kill point.
	cut := -1
	for i, cell := range cp.Cells {
		if len(cell.State.Quarantined) > 0 && cell.RunIndex < len(cp.Runs)-1 {
			cut = i
		}
	}
	if cut < 0 {
		t.Skip("no mid-campaign quarantine under this fault plan; raise the rate to exercise this path")
	}
	target := cp.Cells[cut]
	t.Logf("cutting after cell %d (shard %d, run %s), quarantined: %v",
		cut, target.Shard, target.Run, target.State.Quarantined)

	// Rebuild a journal holding exactly the cells up to and including the
	// quarantine-carrying one (frame order preserves per-shard run order,
	// so the prefix is per-shard contiguous).
	hdr := *cp
	hdr.Cells = nil
	cutPath := filepath.Join(dir, "cut.journal")
	j, err := store.CreateJournal(cutPath, &hdr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cp.Cells[:cut+1] {
		if err := j.Append(cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	study := resumeStudy(t, chaosOptions(2))
	ds, err := study.Execute(context.Background(), Plan{Checkpoint: &CheckpointOptions{Path: cutPath, Resume: true}})
	if err != nil && !DegradedOnly(err) {
		t.Fatal(err)
	}
	if got := digestOrFatal(t, ds); got != base {
		t.Fatalf("resume across a quarantine boundary changed the digest:\n  %s\n  %s", got, base)
	}

	// Beyond digest parity, assert the mechanism directly: in every run
	// after the cut, the benched channels never report attempts — they
	// are skipped as quarantined, not re-retried.
	laterRuns := 0
	for _, run := range ds.Runs {
		ri := -1
		for i, name := range cp.Runs {
			if name == run.Name {
				ri = i
			}
		}
		if ri <= target.RunIndex {
			continue
		}
		laterRuns++
		for _, name := range target.State.Quarantined {
			for _, o := range run.Outcomes {
				if o.Channel != name {
					continue
				}
				if o.Status != store.OutcomeQuarantined {
					t.Errorf("run %s: channel %s was quarantined at the kill but has status %s after resume",
						run.Name, name, o.Status)
				}
				if o.Attempts != 0 {
					t.Errorf("run %s: quarantined channel %s got %d bonus attempts after resume",
						run.Name, name, o.Attempts)
				}
			}
		}
	}
	if laterRuns == 0 {
		t.Fatal("no runs after the quarantine cut — the assertion never ran")
	}
}

// killPoints derives n deterministic byte offsets in (6, size) from a
// seed, spread across the journal so kills land early, middle, and late.
// Exported to the failure report via t.Logf wherever it is used, so a
// red run names the exact (seed, size) pair to replay.
func killPoints(seed, size int64, n int) []int64 {
	pts := make([]int64, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x1234
	for i := range pts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Segment i of n, offset jittered inside the segment.
		seg := size / int64(n)
		off := int64(i)*seg + int64(x%uint64(seg))
		if off <= 6 {
			off = 7 // past the journal preamble
		}
		pts[i] = off
	}
	return pts
}
