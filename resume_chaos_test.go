package hbbtvlab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the process-level half of the crash-safety suite: real
// hbbtv-measure children are SIGKILL'd mid-campaign — no deferred
// cleanup, no graceful unwind, exactly what the OOM killer or a power
// cut delivers — and the resumed campaign must produce a snapshot whose
// digest is byte-identical to an uninterrupted run's. The in-process
// twin (resume_test.go) covers the same contract at library level via
// journal truncation; `make resume` runs both under -race.

// chaosArgs is the chaos experiment of chaos_test.go expressed as
// hbbtv-measure flags (the CLI's own retry defaults apply).
func chaosArgs(scale string) []string {
	return []string{"-seed", "321", "-scale", scale,
		"-fault-rate", "0.25", "-fault-seed", "11", "-retries", "2"}
}

// snapshotDigest loads a dataset file written by -snapshot and
// returns its digest.
func snapshotDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := store.Load(f)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	return digestOrFatal(t, ds)
}

// runToolExpectError runs a built binary expecting a non-zero exit and
// returns its combined output.
func runToolExpectError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s: expected failure, exited 0\n%s",
			filepath.Base(bin), strings.Join(args, " "), out)
	}
	return string(out)
}

// startMeasure launches hbbtv-measure and returns the command, its
// combined output buffer, and a channel that receives Wait's result.
func startMeasure(t *testing.T, bin string, args ...string) (*exec.Cmd, *bytes.Buffer, chan error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	return cmd, &out, done
}

// killAtSize SIGKILLs cmd once the journal file reaches threshold bytes.
// Returns true if the kill landed, false if the campaign finished first
// (a valid outcome: the complete journal still resumes as a no-op).
func killAtSize(t *testing.T, cmd *exec.Cmd, done chan error, journal string, threshold int64) bool {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("child exited non-zero before the kill: %v", err)
			}
			return false
		default:
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("journal %s never reached %d bytes", journal, threshold)
		}
		if fi, err := os.Stat(journal); err == nil && fi.Size() >= threshold {
			err := cmd.Process.Kill()
			if errors.Is(err, os.ErrProcessDone) {
				// The child wrote its last bytes and exited between the
				// check of done above and the kill: it finished first.
				if err := <-done; err != nil {
					t.Fatalf("child exited non-zero before the kill: %v", err)
				}
				return false
			}
			if err != nil {
				t.Fatal(err)
			}
			<-done // reaps the SIGKILL'd child
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosProcessKillResumeParity is the tentpole's end-to-end proof:
// for every worker count, a collector SIGKILL'd when its write-ahead
// journal crosses a seed-derived size threshold is resumed by a fresh
// process, and the resumed snapshot's digest equals the uninterrupted
// run's. One worker count additionally takes a second kill during the
// resume itself.
func TestChaosProcessKillResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process chaos suite skipped in -short")
	}
	dir := t.TempDir()
	measure := buildTool(t, dir, "hbbtv-measure")
	base := chaosArgs("0.02")

	ref := filepath.Join(dir, "ref.snap")
	runTool(t, measure, append(base, "-j", "2", "-shards", "4", "-snapshot", ref)...)
	refDigest := snapshotDigest(t, ref)

	// One complete checkpointed run pins the journal's final size (the
	// campaign is deterministic, so every run writes the same bytes) and
	// proves journaling alone does not perturb the dataset.
	full := filepath.Join(dir, "full.journal")
	fullSnap := filepath.Join(dir, "full.snap")
	runTool(t, measure, append(base, "-j", "2", "-shards", "4",
		"-checkpoint", full, "-snapshot", fullSnap)...)
	if got := snapshotDigest(t, fullSnap); got != refDigest {
		t.Fatalf("checkpointed run digest %s != reference %s", got, refDigest)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	const killSeed = int64(99)
	points := killPoints(killSeed, fi.Size(), 3)
	t.Logf("kill seed %d, full journal %d bytes, thresholds %v", killSeed, fi.Size(), points)

	for i, jobs := range []string{"1", "2", "4", "8"} {
		t.Run("j="+jobs, func(t *testing.T) {
			journal := filepath.Join(dir, "kill-j"+jobs+".journal")
			args := append(base, "-j", jobs, "-shards", "4", "-checkpoint", journal)
			cmd, out, done := startMeasure(t, measure, args...)
			threshold := points[i%len(points)]
			if killAtSize(t, cmd, done, journal, threshold) {
				t.Logf("SIGKILL'd at >= %d journal bytes", threshold)
			} else {
				t.Logf("campaign finished before the %d-byte threshold; resuming a complete journal", threshold)
			}
			_ = out

			// A second kill during the resume for one worker count: the
			// journal must absorb repeated crashes, not just one.
			if jobs == "2" {
				cmd, _, done := startMeasure(t, measure, append(args, "-resume")...)
				if killAtSize(t, cmd, done, journal, points[(i+1)%len(points)]) {
					t.Logf("second SIGKILL at >= %d journal bytes", points[(i+1)%len(points)])
				}
			}

			snap := filepath.Join(dir, "resume-j"+jobs+".snap")
			runTool(t, measure, append(args, "-resume", "-snapshot", snap)...)
			if got := snapshotDigest(t, snap); got != refDigest {
				t.Errorf("resumed digest differs from uninterrupted run (j=%s, kill seed %d, threshold %d):\n  %s\n  %s",
					jobs, killSeed, threshold, got, refDigest)
			}
		})
	}
}

// TestChaosFleetKillResumeMerge: every collector of a 4-shard fleet
// campaign is SIGKILL'd mid-run and resumed, and hbbtv-merge must verify
// the recombined shards against the uninterrupted single-process run —
// crash recovery composes with the fleet topology.
func TestChaosFleetKillResumeMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process chaos suite skipped in -short")
	}
	dir := t.TempDir()
	measure := buildTool(t, dir, "hbbtv-measure")
	merge := buildTool(t, dir, "hbbtv-merge")
	base := chaosArgs("0.02")
	const shards = 4

	single := filepath.Join(dir, "single.snap")
	runTool(t, measure, append(base, "-j", "2", "-shards", fmt.Sprint(shards), "-snapshot", single)...)

	// Learn a typical shard journal size from one complete collector run,
	// then kill every shard (shard 0 included, on a fresh journal) at
	// seed-derived fractions of it.
	probe := filepath.Join(dir, "probe.journal")
	runTool(t, measure, append(base, "-shard", "0/4", "-checkpoint", probe,
		"-snapshot", filepath.Join(dir, "probe.snap"))...)
	fi, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}
	points := killPoints(77, fi.Size(), shards)
	t.Logf("probe shard journal %d bytes, kill thresholds %v", fi.Size(), points)

	shardFiles := make([]string, shards)
	for i := 0; i < shards; i++ {
		spec := fmt.Sprintf("%d/%d", i, shards)
		journal := filepath.Join(dir, fmt.Sprintf("shard%d.journal", i))
		shardFiles[i] = filepath.Join(dir, fmt.Sprintf("shard%d.snap", i))
		args := append(base, "-shard", spec, "-checkpoint", journal)

		cmd, _, done := startMeasure(t, measure, args...)
		if killAtSize(t, cmd, done, journal, points[i]) {
			t.Logf("shard %s SIGKILL'd at >= %d journal bytes", spec, points[i])
		}
		runTool(t, measure, append(args, "-resume", "-snapshot", shardFiles[i])...)
	}

	out := runTool(t, merge, append([]string{"-verify", single}, shardFiles...)...)
	if !strings.Contains(out, "verified: digest matches") {
		t.Errorf("merge of kill-resumed shards failed verification:\n%s", out)
	}
}

// TestChaosResumeMismatchRejectedCLI: a journal resumed under a
// different experiment definition must be rejected with the differing
// field named — at the CLI boundary, not just in the library.
func TestChaosResumeMismatchRejectedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process chaos suite skipped in -short")
	}
	dir := t.TempDir()
	measure := buildTool(t, dir, "hbbtv-measure")
	journal := filepath.Join(dir, "full.journal")
	runTool(t, measure, append(chaosArgs("0.02"), "-j", "2", "-shards", "4", "-checkpoint", journal)...)

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"seed", append(
			[]string{"-seed", "999", "-scale", "0.02", "-fault-rate", "0.25", "-fault-seed", "11", "-retries", "2"},
			"-j", "2", "-shards", "4"), "seed"},
		{"fault config", append(chaosArgs("0.02"), "-fault-rate", "0.5", "-j", "2", "-shards", "4"), "fault config"},
		{"retry policy", append(chaosArgs("0.02"), "-retries", "5", "-j", "2", "-shards", "4"), "retry policy"},
		{"shard count", append(chaosArgs("0.02"), "-j", "2", "-shards", "2"), "shard count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runToolExpectError(t, measure, append(tc.args, "-checkpoint", journal, "-resume")...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("mismatched resume output does not name %q:\n%s", tc.want, out)
			}
		})
	}

	// A different worker count is NOT a mismatch: -j never changes the
	// bytes, so the journal resumes (here: replays to completion) at -j 8.
	snap := filepath.Join(dir, "j8.snap")
	runTool(t, measure, append(chaosArgs("0.02"), "-j", "8", "-shards", "4",
		"-checkpoint", journal, "-resume", "-snapshot", snap)...)
	ref := filepath.Join(dir, "ref.snap")
	runTool(t, measure, append(chaosArgs("0.02"), "-j", "2", "-shards", "4", "-snapshot", ref)...)
	if got, want := snapshotDigest(t, snap), snapshotDigest(t, ref); got != want {
		t.Errorf("journal replayed at -j 8 produced digest %s, want %s", got, want)
	}
}

// TestChaosInterruptGracefulExit: SIGINT must stop the campaign at the
// next channel boundary, exit with the distinct status 3, leave a
// resumable journal, and flush + close the -telemetry-json sink — the
// satellite contract that no exit path leaks a torn telemetry stream.
func TestChaosInterruptGracefulExit(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process chaos suite skipped in -short")
	}
	dir := t.TempDir()
	measure := buildTool(t, dir, "hbbtv-measure")
	// A bigger world (~3s wall clock at -j 1) gives the signal an
	// arbitrarily large landing window: it is sent after the FIRST cell
	// commits, with ~19 cells still to go.
	base := chaosArgs("0.35")
	journal := filepath.Join(dir, "int.journal")
	telemetryJSON := filepath.Join(dir, "telemetry.ndjson")

	args := append(base, "-j", "1", "-shards", "4",
		"-checkpoint", journal, "-telemetry", "-telemetry-json", telemetryJSON)
	cmd, out, done := startMeasure(t, measure, args...)

	// Wait for the first journaled cell, then deliver a single SIGINT.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 64 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("journal never received a cell")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := <-done
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("SIGINT'd campaign exited cleanly (signal landed after completion?): %v\n%s", err, out)
	}
	if exit.ExitCode() != 3 {
		t.Fatalf("interrupted campaign exited %d, want the distinct status 3\n%s", exit.ExitCode(), out)
	}
	if !strings.Contains(out.String(), "-resume") {
		t.Errorf("interrupt message does not point at -resume:\n%s", out)
	}

	// The LineSink must have been flushed and closed on the signal path:
	// every line of the stream parses, including the last one — a torn
	// final line is exactly what a leaked bufio.Writer leaves behind.
	raw, err := os.ReadFile(telemetryJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("interrupted campaign left an empty -telemetry-json stream")
	}
	if raw[len(raw)-1] != '\n' {
		t.Errorf("-telemetry-json stream does not end in a newline: the sink was not flushed")
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	for i, line := range lines {
		var snap map[string]any
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("-telemetry-json line %d of %d is torn or invalid: %v\n%q", i+1, len(lines), err, line)
		}
	}

	// The journal the graceful exit left behind resumes to digest parity.
	snap := filepath.Join(dir, "resumed.snap")
	runTool(t, measure, append(base, "-j", "1", "-shards", "4",
		"-checkpoint", journal, "-resume", "-snapshot", snap)...)
	ref := filepath.Join(dir, "ref.snap")
	runTool(t, measure, append(base, "-j", "2", "-shards", "4", "-snapshot", ref)...)
	if got, want := snapshotDigest(t, snap), snapshotDigest(t, ref); got != want {
		t.Errorf("resume after SIGINT produced digest %s, want %s", got, want)
	}
}
