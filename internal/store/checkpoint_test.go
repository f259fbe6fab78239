package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// readCheckpoint reads a whole checkpoint file and decodes it as the
// journal reader decodes each frame.
func readCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(raw)
}

// sampleCheckpoint builds a two-cell checkpoint over sampleDataset's runs:
// shard 0 completed both runs of a two-run, two-shard study.
func sampleCheckpoint() *Checkpoint {
	ds := sampleDataset()
	return &Checkpoint{
		Campaign: Campaign{
			Shards: 2,
			Params: StudyParams{
				Seed:         321,
				Scale:        0.5,
				ProbeWatchNS: int64(20 * time.Second),
				RunsDigest:   "runs-digest",
				FaultsDigest: "faults-digest",
				Retry:        RetryParams{MaxAttempts: 2, BackoffNS: 1e9, QuarantineAfter: 2},
			},
			ChannelOrder: []string{"KiKA", "n-tv"},
			OrderDigest:  ChannelOrderDigest([]string{"KiKA", "n-tv"}),
		},
		FleetShard: -1,
		Runs:       []RunName{RunGeneral, RunRed},
		Cells: []*CheckpointCell{
			{
				Shard:    0,
				RunIndex: 0,
				Run:      RunGeneral,
				State: CellState{
					FrameworkDraws: 17,
					TVDraws:        4,
					RecorderNextID: 42,
					TVLogTail: []webos.LogEntry{{
						Time: time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC),
						Kind: webos.LogApp, Detail: "power off",
					}},
					FailStreak:  map[string]int{"n-tv": 1},
					Quarantined: []string{"dead-channel"},
					Trackers: []TrackerState{
						{Domain: "tvping.com", Draws: 6, NextID: 3},
						{Domain: "tvping.com", Draws: 2},
					},
				},
				Data: ds.Runs[0],
			},
			{
				Shard:    0,
				RunIndex: 1,
				Run:      RunRed,
				State: CellState{
					FrameworkDraws: 34,
					TVDraws:        6,
					RecorderNextID: 57,
				},
				Data: ds.Runs[1],
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(cp); err != nil {
		t.Fatalf("round-tripped checkpoint fails validation against itself: %v", err)
	}
	if len(got.Cells) != len(cp.Cells) {
		t.Fatalf("cells = %d, want %d", len(got.Cells), len(cp.Cells))
	}
	for i, cell := range got.Cells {
		want := cp.Cells[i]
		if cell.Shard != want.Shard || cell.RunIndex != want.RunIndex || cell.Run != want.Run {
			t.Errorf("cell %d coordinates = (%d, %d, %s), want (%d, %d, %s)",
				i, cell.Shard, cell.RunIndex, cell.Run, want.Shard, want.RunIndex, want.Run)
		}
		if !reflect.DeepEqual(cell.State, want.State) {
			t.Errorf("cell %d state = %+v, want %+v", i, cell.State, want.State)
		}
	}
	// The run data must survive byte-identically — same digest contract as
	// the dataset snapshot.
	wantDigest, err := (&Dataset{Runs: []*RunData{cp.Cells[0].Data, cp.Cells[1].Data}}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := (&Dataset{Runs: []*RunData{got.Cells[0].Data, got.Cells[1].Data}}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Fatalf("cell run data digest changed across the round trip:\n  %s\n  %s", gotDigest, wantDigest)
	}
}

// TestCheckpointLoadsAsDataset: a checkpoint file is an ordinary snapshot
// container, so the plain dataset loader must open it (skipping the
// checkpoint section) and see the cell runs.
func TestCheckpointLoadsAsDataset(t *testing.T) {
	cp := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	ds, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("dataset loader rejects checkpoint container: %v", err)
	}
	if len(ds.Runs) != len(cp.Cells) {
		t.Fatalf("dataset view has %d runs, want %d", len(ds.Runs), len(cp.Cells))
	}
}

// TestCheckpointValidateNamesField: every way a resume can mismatch the
// journaled campaign must be rejected with the differing field named.
func TestCheckpointValidateNamesField(t *testing.T) {
	base := sampleCheckpoint()
	cases := []struct {
		name   string
		mutate func(cp *Checkpoint)
		want   string
	}{
		{"seed", func(cp *Checkpoint) { cp.Params.Seed++ }, "seed"},
		{"scale", func(cp *Checkpoint) { cp.Params.Scale *= 2 }, "scale"},
		{"probe watch", func(cp *Checkpoint) { cp.Params.ProbeWatchNS++ }, "probe watch time"},
		{"run specs digest", func(cp *Checkpoint) { cp.Params.RunsDigest = "other" }, "run specs"},
		{"fault config", func(cp *Checkpoint) { cp.Params.FaultsDigest = "other" }, "fault config"},
		{"retry policy", func(cp *Checkpoint) { cp.Params.Retry.MaxAttempts++ }, "retry policy"},
		{"shard count", func(cp *Checkpoint) { cp.Shards++ }, "shard count"},
		{"fleet shard", func(cp *Checkpoint) { cp.FleetShard = 1 }, "fleet shard"},
		{"run count", func(cp *Checkpoint) { cp.Runs = cp.Runs[:1] }, "run specs mismatch"},
		{"run names", func(cp *Checkpoint) { cp.Runs = []RunName{RunRed, RunGeneral} }, "run specs mismatch"},
		{"channel order", func(cp *Checkpoint) { cp.OrderDigest = "other" }, "channel order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sampleCheckpoint()
			tc.mutate(want)
			err := base.Validate(want)
			if err == nil {
				t.Fatalf("mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the differing field %q", err, tc.want)
			}
		})
	}
	if err := base.Validate(sampleCheckpoint()); err != nil {
		t.Fatalf("identical checkpoints rejected: %v", err)
	}
}

// TestCheckpointTruncatedEverywhere: a checkpoint container cut short at
// ANY byte must fail with a descriptive wrapped error — never a raw
// io.EOF, never a panic, and never a silently shorter checkpoint.
func TestCheckpointTruncatedEverywhere(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, err := readCheckpoint(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", cut, len(raw))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Fatalf("truncation at byte %d returned a raw %v instead of a descriptive error", cut, err)
		}
	}
}

// TestCheckpointCorruptedMetadata: damage inside the checkpoint's JSON
// metadata section must be reported as a metadata error, not decoded into
// nonsense.
func TestCheckpointCorruptedMetadata(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	// The metadata section directly follows magic+version: tag byte, then
	// a uvarint length, then JSON starting with '{'.
	off := len(snapshotMagic) + 1
	if raw[off] != secCheckpoint {
		t.Fatalf("expected checkpoint section tag at offset %d, got %d", off, raw[off])
	}
	for i := off + 1; i < len(raw); i++ {
		if raw[i] == '{' {
			raw[i] = '!'
			break
		}
	}
	if _, err := readCheckpoint(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted metadata accepted")
	} else if !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("error %q does not name the metadata section", err)
	}
}

// TestCheckpointNullCellRejected: a null entry in the metadata's cell list
// is reported as a metadata error instead of crashing the reader.
func TestCheckpointNullCellRejected(t *testing.T) {
	var buf bytes.Buffer
	meta := jsonSection{secCheckpoint, json.RawMessage(`{"cells":[null]}`)}
	if err := writeContainer(&buf, []jsonSection{meta}, sampleDataset().Runs[:1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(&buf); err == nil || !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("err = %v, want a metadata error", err)
	}
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	path := journalPath(t)
	j, err := CreateJournal(path, cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cp.Cells {
		if err := j.Append(cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, validLen, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != fi.Size() {
		t.Fatalf("clean journal valid length %d != file size %d", validLen, fi.Size())
	}
	if err := got.Validate(cp); err != nil {
		t.Fatalf("journaled header fails validation: %v", err)
	}
	if len(got.Cells) != len(cp.Cells) {
		t.Fatalf("journal yields %d cells, want %d", len(got.Cells), len(cp.Cells))
	}
	for i, cell := range got.Cells {
		if !reflect.DeepEqual(cell.State, cp.Cells[i].State) {
			t.Errorf("cell %d state = %+v, want %+v", i, cell.State, cp.Cells[i].State)
		}
	}
}

// TestJournalTornTailEverywhere: cutting the journal at ANY byte must
// yield the intact frame prefix — header damage is fatal, a torn cell
// tail is ErrJournalTorn with every complete frame preserved, and a cut
// on a frame boundary is a clean (shorter) journal.
func TestJournalTornTailEverywhere(t *testing.T) {
	cp := sampleCheckpoint()
	path := journalPath(t)
	j, err := CreateJournal(path, cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: after the preamble+header frame, then after each
	// cell append.
	var bounds []int64
	stat := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	bounds = append(bounds, stat())
	for _, cell := range cp.Cells {
		if err := j.Append(cell); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, stat())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bounds[0]

	cellsBelow := func(cut int64) int {
		n := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}
	onBoundary := func(cut int64) bool {
		for _, b := range bounds {
			if b == cut {
				return true
			}
		}
		return false
	}

	cut := filepath.Join(t.TempDir(), "cut.journal")
	for c := 0; c < len(raw); c++ {
		if err := os.WriteFile(cut, raw[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := LoadJournal(cut)
		switch {
		case int64(c) < headerEnd:
			// The identity frame itself is damaged: unusable, and the error
			// must say so rather than hand back an empty checkpoint.
			if err == nil {
				t.Fatalf("cut at %d (inside header) accepted", c)
			}
			if errors.Is(err, ErrJournalTorn) {
				t.Fatalf("cut at %d (inside header) reported as recoverable torn tail: %v", c, err)
			}
		case onBoundary(int64(c)):
			if err != nil {
				t.Fatalf("cut at frame boundary %d rejected: %v", c, err)
			}
			if len(got.Cells) != cellsBelow(int64(c)) {
				t.Fatalf("cut at boundary %d yields %d cells, want %d", c, len(got.Cells), cellsBelow(int64(c)))
			}
		default:
			if !errors.Is(err, ErrJournalTorn) {
				t.Fatalf("cut at %d: want ErrJournalTorn, got %v", c, err)
			}
			if got == nil {
				t.Fatalf("cut at %d: torn tail returned no checkpoint", c)
			}
			want := cellsBelow(int64(c))
			if len(got.Cells) != want {
				t.Fatalf("cut at %d yields %d cells, want intact prefix of %d", c, len(got.Cells), want)
			}
			if !onBoundary(validLen) {
				t.Fatalf("cut at %d: valid length %d is not a frame boundary", c, validLen)
			}
		}
	}
}

// TestJournalResumeTruncatesAndAppends: ResumeJournal on a torn journal
// must truncate the tail and leave the file positioned so the next
// Append produces a clean journal.
func TestJournalResumeTruncatesAndAppends(t *testing.T) {
	cp := sampleCheckpoint()
	path := journalPath(t)
	j, err := CreateJournal(path, cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(cp.Cells[0]); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(cp.Cells[1]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second cell: keep 10 bytes of its frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:sizeAfterFirst.Size()+10], 0o644); err != nil {
		t.Fatal(err)
	}

	got, rj, err := ResumeJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 {
		t.Fatalf("resumed journal has %d cells, want the intact prefix of 1", len(got.Cells))
	}
	// Re-append the lost cell; the journal must read back clean.
	if err := rj.Append(cp.Cells[1]); err != nil {
		t.Fatal(err)
	}
	if err := rj.Close(); err != nil {
		t.Fatal(err)
	}
	final, _, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("journal not clean after resume+append: %v", err)
	}
	if len(final.Cells) != 2 {
		t.Fatalf("final journal has %d cells, want 2", len(final.Cells))
	}
	if !reflect.DeepEqual(final.Cells[1].State, cp.Cells[1].State) {
		t.Fatalf("re-appended cell state = %+v, want %+v", final.Cells[1].State, cp.Cells[1].State)
	}
}

// TestJournalConcurrentAppend: shards commit from their own goroutines
// straight to the journal. Every cell must come back from ResumeJournal,
// each shard's in the order it appended them, and every frame must be
// intact — no torn tail, no frame interleaved into another.
func TestJournalConcurrentAppend(t *testing.T) {
	const shards = 8
	cp := sampleCheckpoint()
	cp.Shards = shards
	path := journalPath(t)
	j, err := CreateJournal(path, cp, 3)
	if err != nil {
		t.Fatal(err)
	}
	runs := sampleDataset().Runs
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri, run := range runs {
				cell := &CheckpointCell{Shard: s, RunIndex: ri, Run: run.Name,
					State: CellState{FrameworkDraws: uint64(10*s + ri)}, Data: run}
				if err := j.Append(cell); err != nil {
					t.Errorf("shard %d run %d: %v", s, ri, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, rj, err := ResumeJournal(path, 1)
	if err != nil {
		t.Fatalf("journal written by concurrent appends: %v", err)
	}
	defer rj.Close()
	if len(got.Cells) != shards*len(runs) {
		t.Fatalf("journal holds %d cells, want %d", len(got.Cells), shards*len(runs))
	}
	digest := func(run *RunData) string {
		d, err := (&Dataset{Runs: []*RunData{run}}).Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	next := make(map[int]int)
	for _, cell := range got.Cells {
		ri := next[cell.Shard]
		next[cell.Shard]++
		if cell.RunIndex != ri || cell.State.FrameworkDraws != uint64(10*cell.Shard+ri) {
			t.Fatalf("shard %d cell %d is run %d with state %+v", cell.Shard, ri, cell.RunIndex, cell.State)
		}
		if digest(cell.Data) != digest(runs[ri]) {
			t.Fatalf("shard %d run %d: data does not round-trip", cell.Shard, ri)
		}
	}
}

// TestJournalCorruptCRC: a bit flip inside a cell frame must fail that
// frame's checksum and surface as a torn tail at the frame's offset.
func TestJournalCorruptCRC(t *testing.T) {
	cp := sampleCheckpoint()
	path := journalPath(t)
	j, err := CreateJournal(path, cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cp.Cells {
		if err := j.Append(cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the first cell frame's payload.
	raw[headerEnd.Size()+20] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, validLen, err := LoadJournal(path)
	if !errors.Is(err, ErrJournalTorn) {
		t.Fatalf("want ErrJournalTorn for corrupted frame, got %v", err)
	}
	if len(got.Cells) != 0 {
		t.Fatalf("corrupted first cell yields %d cells, want 0", len(got.Cells))
	}
	if validLen != headerEnd.Size() {
		t.Fatalf("valid length %d, want header end %d", validLen, headerEnd.Size())
	}
}

// TestJournalRejectsForeignCell: a cell frame spliced in from another
// campaign's journal, its CRC intact, is neither a torn tail nor a cell
// of this journal: LoadJournal names the differing field and returns no
// checkpoint, and ResumeJournal refuses the file.
func TestJournalRejectsForeignCell(t *testing.T) {
	// journal writes cp's journal with its first cell and returns the
	// file's bytes and where its header frame ends.
	journal := func(cp *Checkpoint) ([]byte, int64) {
		t.Helper()
		path := journalPath(t)
		j, err := CreateJournal(path, cp, 1)
		if err != nil {
			t.Fatal(err)
		}
		headerEnd, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(cp.Cells[0]); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, headerEnd.Size()
	}
	own, ownEnd := journal(sampleCheckpoint())
	foreign := sampleCheckpoint()
	foreign.Params.Seed = 999
	other, otherEnd := journal(foreign)

	path := journalPath(t)
	spliced := append(own[:ownEnd:ownEnd], other[otherEnd:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, _, err := LoadJournal(path)
	if err == nil || errors.Is(err, ErrJournalTorn) || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("foreign cell frame: err = %v, want an error naming the seed", err)
	}
	if cp != nil {
		t.Errorf("foreign cell frame: LoadJournal returned a checkpoint of %d cells", len(cp.Cells))
	}
	if _, j, err := ResumeJournal(path, 1); err == nil {
		j.Close()
		t.Error("ResumeJournal accepted a journal with a foreign cell frame")
	}
}

// TestJournalRejectsNonJournal: a dataset snapshot or random bytes are
// not a journal and must be rejected by name.
func TestJournalRejectsNonJournal(t *testing.T) {
	path := journalPath(t)
	var buf bytes.Buffer
	if err := Save(&buf, sampleDataset(), FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), "not a checkpoint journal") {
		t.Fatalf("snapshot accepted as journal: %v", err)
	}
}
