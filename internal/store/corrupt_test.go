package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// This file is the torn-file contract of the two dataset formats: a
// truncated or corrupted input must fail with a descriptive wrapped error
// — never a raw io.EOF, never a panic, and never a silently shorter
// dataset. The checkpoint/journal formats have their own twin in
// checkpoint_test.go.

func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, sampleDataset(), FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trailingJSONInputs are gzip-JSON files with data after the dataset:
// garbage after the value inside the gzip stream, and two files
// concatenated, which gzip.Reader reads as one stream.
func trailingJSONInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	var garbage bytes.Buffer
	if err := newGzipJSON(&garbage, `{"version":1,"runs":null} trailing garbage`); err != nil {
		tb.Fatal(err)
	}
	a := referenceGzipJSON(tb, &Dataset{Runs: []*RunData{{Name: RunGeneral}}})
	b := referenceGzipJSON(tb, &Dataset{Runs: []*RunData{{Name: RunRed}}})
	return map[string][]byte{
		"garbage after the value": garbage.Bytes(),
		"two concatenated files":  append(append([]byte(nil), a...), b...),
	}
}

// trailingSnapshot is sampleDataset's two-run snapshot followed by a copy
// of its own sections, end marker included.
func trailingSnapshot(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, sampleDataset(), FormatSnapshot); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	return append(raw, raw[len(snapshotMagic)+1:]...)
}

// TestJSONRejectsTrailingData: a gzip-JSON file holds one dataset; data
// after it is an error, not silently dropped. JSON whitespace after the
// value is still fine.
func TestJSONRejectsTrailingData(t *testing.T) {
	for name, raw := range trailingJSONInputs(t) {
		if ds, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: loaded %d runs without error", name, len(ds.Runs))
		} else if !strings.Contains(err.Error(), "after the dataset") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	var spaced bytes.Buffer
	if err := newGzipJSON(&spaced, "{\"version\":1,\"runs\":null}\n \t\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&spaced); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestSnapshotRejectsTrailingData: the end marker ends the snapshot, so a
// second copy of the sections after it is an error, not two more runs.
func TestSnapshotRejectsTrailingData(t *testing.T) {
	raw := trailingSnapshot(t)
	if ds, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatalf("loaded %d runs without error", len(ds.Runs))
	} else if !strings.Contains(err.Error(), "after the end-of-snapshot marker") {
		t.Fatalf("err = %v", err)
	}
	if _, err := decodeCheckpoint(raw); err == nil || !strings.Contains(err.Error(), "after the end-of-snapshot marker") {
		t.Fatalf("checkpoint reader: err = %v", err)
	}
}

// TestSnapshotTruncatedEverywhere cuts the snapshot at EVERY byte —
// section boundaries included, which is what a torn download or a
// half-flushed write leaves behind — and demands a real error each time.
func TestSnapshotTruncatedEverywhere(t *testing.T) {
	raw := snapshotBytes(t)
	for cut := 0; cut < len(raw); cut++ {
		ds, err := Load(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d of %d loaded %d run(s) without error", cut, len(raw), len(ds.Runs))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Fatalf("truncation at byte %d returned a raw %v instead of a descriptive error", cut, err)
		}
		if !strings.Contains(err.Error(), "store:") {
			t.Fatalf("truncation at byte %d: error %q is not wrapped with store context", cut, err)
		}
	}
}

// TestSnapshotSectionBoundaryTruncation pins the sharpest case: a file
// cut exactly between two sections is structurally valid section-by-
// section, and only the end marker reveals the loss.
func TestSnapshotSectionBoundaryTruncation(t *testing.T) {
	raw := snapshotBytes(t)
	// Walk the section framing to find every boundary.
	sr := &snapReader{b: raw, off: len(snapshotMagic) + 1}
	var bounds []int
	for sr.err == nil && sr.off < len(sr.b) {
		sr.byte()
		sr.bytes()
		if sr.err == nil {
			bounds = append(bounds, sr.off)
		}
	}
	if sr.err != nil {
		t.Fatalf("walking sections of a clean snapshot failed: %v", sr.err)
	}
	if len(bounds) < 3 {
		t.Fatalf("snapshot has only %d sections", len(bounds))
	}
	// The final boundary is the intact file; every earlier one lost at
	// least the end marker.
	for _, b := range bounds[:len(bounds)-1] {
		_, err := Load(bytes.NewReader(raw[:b]))
		if err == nil {
			t.Fatalf("snapshot cut at section boundary %d loaded without error", b)
		}
		if !strings.Contains(err.Error(), "missing end-of-snapshot marker") {
			t.Fatalf("boundary cut at %d: error %q does not name the missing end marker", b, err)
		}
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
}

// TestSnapshotBitFlipsNoPanic flips every byte of the container one at a
// time. Any outcome is acceptable except a panic or a raw io.EOF: the
// loader must stay in control of arbitrary damage.
func TestSnapshotBitFlipsNoPanic(t *testing.T) {
	raw := snapshotBytes(t)
	flipped := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(flipped, raw)
		flipped[i] ^= 0xff
		_, err := Load(bytes.NewReader(flipped))
		if err == io.EOF {
			t.Fatalf("bit flip at byte %d returned a raw io.EOF", i)
		}
	}
}

// TestJSONTruncatedFailsWrapped: the gzip-JSON format's torn-tail story —
// cut anywhere, the error is wrapped load context, not a bare EOF.
func TestJSONTruncatedFailsWrapped(t *testing.T) {
	raw := referenceGzipJSON(t, sampleDataset())
	for _, frac := range []int{1, 2, 3, 4, 8} {
		cut := len(raw) * (frac - 1) / frac
		if frac == 1 {
			cut = len(raw) - 1 // lose only the stream's final byte
		}
		_, err := Load(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("gzip-JSON truncated to %d of %d bytes loaded without error", cut, len(raw))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			t.Fatalf("gzip-JSON truncation at %d returned raw %v", cut, err)
		}
		if !strings.Contains(err.Error(), "store:") {
			t.Fatalf("gzip-JSON truncation at %d: error %q lacks store context", cut, err)
		}
	}
}

// TestSnapshotImplausibleHeaderCount: a header block claiming more entries
// than it has bytes fails before anything is sized from the claim.
func TestSnapshotImplausibleHeaderCount(t *testing.T) {
	var block, table snapWriter
	block.uvarint(1 << 40)
	table.uvarint(1)
	table.bytes(block.buf)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVer)
	writeSection(bw, secReqHdrs, table.buf)
	writeSection(bw, secEnd, nil)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("err = %v, want an implausible-count error", err)
	}
}

// withCorruptFlowChunks returns the one-run snapshot raw with a stray byte
// appended to each of the named flow chunks of its run. The chunks end
// the run section, so the test finds where they start as the one offset
// from which the flow count and nchunks length-prefixed chunks consume
// the rest of the section exactly, and re-frames the section.
func withCorruptFlowChunks(t *testing.T, raw []byte, nflows, nchunks int, corrupt ...int) []byte {
	t.Helper()
	sr := &snapReader{b: raw, off: len(snapshotMagic) + 1}
	for sr.err == nil {
		start := sr.off
		tag := sr.byte()
		payload := sr.bytes()
		if tag != secRun {
			continue
		}
		for o := 0; o < len(payload); o++ {
			pr := &snapReader{b: payload, off: o}
			if pr.uvarint() != uint64(nflows) {
				continue
			}
			chunks := make([][]byte, nchunks)
			for i := range chunks {
				chunks[i] = pr.bytes()
			}
			if pr.err != nil || pr.off != len(payload) {
				continue
			}
			body := binary.AppendUvarint(bytes.Clone(payload[:o]), uint64(nflows))
			for i, c := range chunks {
				if slices.Contains(corrupt, i) {
					c = append(bytes.Clone(c), 0)
				}
				body = binary.AppendUvarint(body, uint64(len(c)))
				body = append(body, c...)
			}
			out := append(bytes.Clone(raw[:start]), tag)
			out = binary.AppendUvarint(out, uint64(len(body)))
			out = append(out, body...)
			return append(out, raw[sr.off:]...)
		}
		t.Fatal("no flow chunks found in the run section")
	}
	t.Fatalf("no run section: %v", sr.err)
	return nil
}

// TestSnapshotCorruptFlowChunksFailAlike: a run whose second and fourth
// flow chunks are corrupt fails to load with the second chunk's error at
// GOMAXPROCS 1, 2 and 4, however the workers happen to claim the chunks.
func TestSnapshotCorruptFlowChunksFailAlike(t *testing.T) {
	const nchunks = 5
	run := &RunData{Name: RunGeneral}
	for i := 0; i < (nchunks-1)*snapFlowChunk+7; i++ {
		f := mkFlow(fmt.Sprintf("http://t%d.example/p?i=%d", i%5, i), "KiKA", false)
		f.ID = int64(i)
		run.Flows = append(run.Flows, f)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &Dataset{Runs: []*RunData{run}}, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	raw := withCorruptFlowChunks(t, buf.Bytes(), len(run.Flows), nchunks, 1, 3)
	const want = "store: snapshot: 1 stray bytes after flow chunk 1"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			if _, err := Load(bytes.NewReader(raw)); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d, load %d: err = %v, want %q", procs, i, err, want)
			}
		}
	}
}
