// Package cli holds the flag vocabulary shared by the hbbtv commands
// (hbbtv-measure, hbbtv-analyze, hbbtv-merge): one definition per flag,
// so -seed, -scale, -j, the dataset output flags, the telemetry trio, and
// the fleet -shard flag are spelled, described, and validated identically
// everywhere they appear.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// Study is the world-defining flag pair every command shares.
type Study struct {
	Seed  int64
	Scale float64
}

// Register installs -seed and -scale.
func (s *Study) Register(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", 1, "world seed (deterministic)")
	fs.Float64Var(&s.Scale, "scale", 1.0, "world scale (1.0 = paper scale, 396 channels)")
}

// Jobs is the worker-count flag. The purpose string completes the usage
// line ("the sharded measurement engine", "the analysis engine"), because
// what -j parallelizes differs per command while its contract — results
// are identical for every value — does not.
type Jobs struct {
	N int
}

// Register installs -j.
func (j *Jobs) Register(fs *flag.FlagSet, purpose string) {
	fs.IntVar(&j.N, "j", 0, fmt.Sprintf("worker goroutines for %s (0 = serial; results are identical for every j)", purpose))
}

// Validate rejects negative worker counts.
func (j *Jobs) Validate() error {
	if j.N < 0 {
		return fmt.Errorf("-j must be >= 0, got %d", j.N)
	}
	return nil
}

// Telemetry is the instrumentation flag trio.
type Telemetry struct {
	Enabled  bool
	JSONPath string
	HTTPAddr string
}

// Register installs -telemetry, -telemetry-json, and -telemetry-http.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.BoolVar(&t.Enabled, "telemetry", false, "instrument the engine: live progress line on stderr, snapshot and span trace embedded in -snapshot output")
	fs.StringVar(&t.JSONPath, "telemetry-json", "", "stream periodic telemetry snapshots as JSON lines to this file (implies -telemetry)")
	fs.StringVar(&t.HTTPAddr, "telemetry-http", "", "serve the live dashboard on this address, e.g. localhost:8377: HTML at /, SSE at /events, JSON snapshot at /telemetry (implies -telemetry)")
}

// On reports whether any of the trio enables instrumentation.
func (t *Telemetry) On() bool {
	return t.Enabled || t.JSONPath != "" || t.HTTPAddr != ""
}

// Shard is the fleet partition flag, spelled "i/N": run shard i of an
// N-way campaign. The zero value means no sharding.
type Shard struct {
	Index int
	Of    int
	set   bool
}

// Register installs -shard.
func (s *Shard) Register(fs *flag.FlagSet) {
	fs.Var(s, "shard", "run only shard i of an N-way fleet campaign, spelled i/N (e.g. 0/4); merge the shard datasets with hbbtv-merge")
}

// String renders the flag's current value (flag.Value).
func (s *Shard) String() string {
	if s == nil || !s.set {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Of)
}

// Set parses "i/N" (flag.Value).
func (s *Shard) Set(v string) error {
	i, n, ok := strings.Cut(v, "/")
	if !ok {
		return fmt.Errorf("want i/N (e.g. 0/4), got %q", v)
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return fmt.Errorf("bad shard index in %q: %v", v, err)
	}
	of, err := strconv.Atoi(n)
	if err != nil {
		return fmt.Errorf("bad shard count in %q: %v", v, err)
	}
	if of < 1 {
		return fmt.Errorf("shard count must be >= 1, got %d", of)
	}
	if idx < 0 || idx >= of {
		return fmt.Errorf("shard index %d out of range [0, %d)", idx, of)
	}
	s.Index, s.Of, s.set = idx, of, true
	return nil
}

// Enabled reports whether -shard was given.
func (s *Shard) Enabled() bool { return s.set }

// Checkpoint is the crash-safety flag trio of resumable campaigns:
// -checkpoint names the write-ahead journal, -resume continues a killed
// campaign from it, -checkpoint-sync tunes the fsync cadence.
type Checkpoint struct {
	Path      string
	Resume    bool
	SyncEvery int
}

// Register installs -checkpoint, -resume, and -checkpoint-sync.
func (c *Checkpoint) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Path, "checkpoint", "", "write-ahead checkpoint journal: every completed (shard, run) cell is committed and fsync'd here, so a killed campaign can continue with -resume")
	fs.BoolVar(&c.Resume, "resume", false, "resume the campaign from the -checkpoint journal: replay its completed cells, measure only the rest (requires -checkpoint)")
	fs.IntVar(&c.SyncEvery, "checkpoint-sync", 1, "fsync the checkpoint journal after every N committed cells (1 = every cell, the safest; larger trades the newest cells' durability for fewer fsyncs)")
}

// Enabled reports whether a checkpoint journal was requested.
func (c *Checkpoint) Enabled() bool { return c.Path != "" }

// Validate rejects inconsistent checkpoint flags.
func (c *Checkpoint) Validate() error {
	if c.Resume && c.Path == "" {
		return fmt.Errorf("-resume continues a journaled campaign; it requires -checkpoint FILE")
	}
	if c.SyncEvery < 1 {
		return fmt.Errorf("-checkpoint-sync must be >= 1, got %d", c.SyncEvery)
	}
	return nil
}

// Output is the dataset output flag: the one file format datasets are
// written in is the binary snapshot, which hbbtv-analyze -in and
// hbbtv-merge read back.
type Output struct {
	SnapshotPath string
}

// Register installs -snapshot. The what string names the thing being
// written ("the FULL dataset", "the merged dataset").
func (o *Output) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&o.SnapshotPath, "snapshot", "", fmt.Sprintf("write %s in the binary snapshot format for later hbbtv-analyze -in", what))
}

// Write saves the dataset to the requested file, reporting the write on w
// the way the commands always have, and returns the dataset's digest from
// the encode that wrote the file. Without -snapshot it writes nothing and
// returns "".
func (o *Output) Write(w io.Writer, ds *store.Dataset) (digest string, err error) {
	if o.SnapshotPath == "" {
		return "", nil
	}
	f, err := os.Create(o.SnapshotPath)
	if err != nil {
		return "", err
	}
	if digest, err = store.SaveDigest(f, ds); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	fmt.Fprintf(w, "snapshot written to %s\n", o.SnapshotPath)
	return digest, nil
}
