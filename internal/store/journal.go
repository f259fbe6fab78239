package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// This file is the write-ahead half of the checkpoint layer: an
// append-only journal that makes every committed cell durable before the
// engine moves on, so a collector killed at an arbitrary byte — SIGKILL
// included — resumes from its last fsync'd cell.
//
// Journal layout: the snapshot magic ("HBTV"), a journal tag byte, and a
// version byte, followed by frames. Each frame is
//
//	tag byte (jrecHeader or jrecCell)
//	uint32 LE payload length
//	payload
//	uint32 LE CRC-32 (IEEE) of the payload
//
// The header frame (exactly one, first) carries the campaign identity: a
// WriteCheckpoint container with no cells. Each cell frame carries one
// single-cell WriteCheckpoint container stamped with the same identity
// block — the cell format and the compact checkpoint format are the same
// bytes, framed, and every frame is independently decodable. The reader
// validates every cell frame's identity block against the header's, so a
// frame spliced in from another campaign's journal is refused even though
// its CRC holds.
//
// A crash can tear only the frame being written. The reader verifies
// each frame's length and CRC and stops at the first damaged one,
// returning the intact prefix and the byte offset where it ends; the
// writer reopens at that offset, truncating the torn tail before
// appending. A torn tail therefore costs at most one cell — the one that
// was never durable.

const (
	journalTag = 'J'
	journalVer = 1

	jrecHeader = 1
	jrecCell   = 2

	// journalMaxFrame bounds a frame's declared payload length. A frame
	// is one run of one shard; even paper-scale runs are far below this,
	// and the bound keeps a corrupted length field from asking the reader
	// to allocate terabytes.
	journalMaxFrame = 1 << 31
)

// ErrJournalTorn reports that a journal's tail was damaged (a frame cut
// short or failing its checksum) — expected after a kill; the intact
// prefix is still returned.
var ErrJournalTorn = errors.New("store: checkpoint journal: torn tail")

// CheckpointJournal appends completed cells to a write-ahead journal
// file. Its methods are safe for concurrent use: cells complete on many
// goroutines, and each Append encodes its frame on its caller's
// goroutine, taking the journal's lock only to write the frame and keep
// the fsync cadence.
type CheckpointJournal struct {
	f   *os.File
	hdr *Checkpoint // identity block (no cells), stamped into every frame; read-only

	mu        sync.Mutex // guards the writes to f, and sinceSync
	sync      int        // fsync every sync appends (min 1)
	sinceSync int
}

// CreateJournal creates (or truncates) a journal at path and writes its
// header frame: the campaign identity the resume will validate against.
// syncEvery sets the fsync cadence in cells — 1 (the default for values
// < 1) makes every committed cell durable before the engine proceeds;
// larger values trade the durability of the last N-1 cells for fewer
// fsyncs.
func CreateJournal(path string, header *Checkpoint, syncEvery int) (*CheckpointJournal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint journal: %w", err)
	}
	hdr := *header
	hdr.Cells = nil
	j := newJournal(f, &hdr, syncEvery)
	var preamble [6]byte
	copy(preamble[:], snapshotMagic)
	preamble[4] = journalTag
	preamble[5] = journalVer
	if _, err := f.Write(preamble[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: checkpoint journal: %w", err)
	}
	frame, err := encodeFrame(jrecHeader, &hdr)
	if err == nil {
		err = j.write(frame)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := j.syncLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

func newJournal(f *os.File, hdr *Checkpoint, syncEvery int) *CheckpointJournal {
	if syncEvery < 1 {
		syncEvery = 1
	}
	return &CheckpointJournal{f: f, hdr: hdr, sync: syncEvery}
}

// Append commits one completed cell: the frame is written and, per the
// sync cadence, fsync'd before Append returns. The frame carries the
// journal's identity block alongside the cell, so every frame is a
// self-describing single-cell checkpoint. Concurrent Appends encode in
// parallel and write whole frames one at a time, in the order they take
// the lock.
func (j *CheckpointJournal) Append(cell *CheckpointCell) error {
	one := *j.hdr
	one.Cells = []*CheckpointCell{cell}
	frame, err := encodeFrame(jrecCell, &one)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.write(frame); err != nil {
		return err
	}
	j.sinceSync++
	if j.sinceSync >= j.sync {
		return j.syncLocked()
	}
	return nil
}

// encodeFrame encodes cp as a complete frame in memory: tag, payload
// length, the WriteCheckpoint payload and its CRC.
func encodeFrame(tag byte, cp *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write([]byte{tag, 0, 0, 0, 0})
	if err := WriteCheckpoint(&buf, cp); err != nil {
		return nil, err
	}
	payload := buf.Bytes()[5:]
	binary.LittleEndian.PutUint32(buf.Bytes()[1:5], uint32(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// write hands one complete frame to the file in one Write call — the file
// never holds a frame whose length prefix promises bytes that were not
// at least handed to the kernel.
func (j *CheckpointJournal) write(frame []byte) error {
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	return nil
}

// syncLocked flushes the journal to stable storage. The caller holds j.mu
// or has not shared j yet.
func (j *CheckpointJournal) syncLocked() error {
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. The final sync makes every
// appended cell durable regardless of the cadence, which is what the
// graceful-shutdown path (drain, final checkpoint, exit) relies on.
func (j *CheckpointJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.syncLocked(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	return nil
}

// LoadJournal reads a journal, tolerating a torn tail: it returns the
// checkpoint assembled from the header frame and every intact cell
// frame, plus the byte offset at which the intact prefix ends.
// ResumeJournal truncates to that offset before appending. When the tail
// was torn the error is ErrJournalTorn (wrapped) and the checkpoint is
// still valid; any other error means the journal is unusable.
func LoadJournal(path string) (*Checkpoint, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: checkpoint journal: %w", err)
	}
	if len(raw) < 6 || string(raw[:4]) != snapshotMagic || raw[4] != journalTag {
		return nil, 0, fmt.Errorf("store: checkpoint journal: %s is not a checkpoint journal", path)
	}
	if raw[5] != journalVer {
		return nil, 0, fmt.Errorf("store: checkpoint journal: unsupported version %d", raw[5])
	}

	var cp *Checkpoint
	off := int64(6)
	for {
		frameStart := off
		tag, payload, next, ok := readFrame(raw, off)
		if !ok {
			if int(off) == len(raw) {
				// Clean end of journal.
				break
			}
			if cp == nil {
				return nil, 0, fmt.Errorf("store: checkpoint journal: header frame damaged at offset %d", frameStart)
			}
			return cp, frameStart, fmt.Errorf("%w at offset %d (last %d bytes discarded)",
				ErrJournalTorn, frameStart, int64(len(raw))-frameStart)
		}
		switch tag {
		case jrecHeader:
			if cp != nil {
				return nil, 0, fmt.Errorf("store: checkpoint journal: duplicate header frame at offset %d", frameStart)
			}
			hdr, err := decodeCheckpoint(payload)
			if err != nil {
				return nil, 0, fmt.Errorf("store: checkpoint journal: header: %w", err)
			}
			cp = hdr
		case jrecCell:
			if cp == nil {
				return nil, 0, fmt.Errorf("store: checkpoint journal: cell frame before header at offset %d", frameStart)
			}
			one, err := decodeCheckpoint(payload)
			if err != nil {
				// An intact frame (CRC passed) that fails to decode is not
				// a torn tail — it means the writer was broken.
				return nil, 0, fmt.Errorf("store: checkpoint journal: cell at offset %d: %w", frameStart, err)
			}
			if len(one.Cells) != 1 {
				return nil, 0, fmt.Errorf("store: checkpoint journal: cell frame at offset %d holds %d cells", frameStart, len(one.Cells))
			}
			if err := cp.Validate(one); err != nil {
				return nil, 0, fmt.Errorf("store: checkpoint journal: cell frame at offset %d belongs to another campaign: %w", frameStart, err)
			}
			cell := one.Cells[0]
			if err := cp.checkCell(cell); err != nil {
				return nil, 0, err
			}
			cp.Cells = append(cp.Cells, cell)
		default:
			// Unknown frame from a newer writer: skip (it passed its CRC).
		}
		off = next
	}
	if cp == nil {
		return nil, 0, fmt.Errorf("store: checkpoint journal: missing header frame")
	}
	return cp, off, nil
}

// readFrame decodes the frame at off. ok is false when the bytes at off
// do not form a complete, checksum-valid frame.
func readFrame(raw []byte, off int64) (tag byte, payload []byte, next int64, ok bool) {
	if int64(len(raw))-off < 5 {
		return 0, nil, 0, false
	}
	tag = raw[off]
	n := int64(binary.LittleEndian.Uint32(raw[off+1 : off+5]))
	if n > journalMaxFrame || int64(len(raw))-off-5 < n+4 {
		return 0, nil, 0, false
	}
	payload = raw[off+5 : off+5+n]
	want := binary.LittleEndian.Uint32(raw[off+5+n : off+9+n])
	if crc32.ChecksumIEEE(payload) != want {
		return 0, nil, 0, false
	}
	return tag, payload, off + 9 + n, true
}

// ResumeJournal reopens an existing journal for appending: it loads the
// intact prefix (LoadJournal), truncates any torn tail, and returns the
// loaded checkpoint together with a journal positioned for the next
// Append. The caller validates the checkpoint against its study before
// committing anything.
func ResumeJournal(path string, syncEvery int) (*Checkpoint, *CheckpointJournal, error) {
	cp, validLen, err := LoadJournal(path)
	if err != nil && !errors.Is(err, ErrJournalTorn) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: checkpoint journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: checkpoint journal: %w", err)
	}
	hdr := *cp
	hdr.Cells = nil
	return cp, newJournal(f, &hdr, syncEvery), nil
}
