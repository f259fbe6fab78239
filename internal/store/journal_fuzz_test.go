package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadJournal feeds arbitrary bytes to LoadJournal through a file.
// It must never panic. An intact or torn journal reports an offset
// inside the input, and that prefix — the file ResumeJournal leaves
// behind — loads without error to the same offset and checkpoint; any
// other error comes without a checkpoint. With reseal, the harness first
// rewrites the CRC of every complete frame, so mutated payloads get past
// the checksum and reach the checkpoint decoder and the cell checks.
func FuzzLoadJournal(f *testing.F) {
	cp := sampleCheckpoint()
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := CreateJournal(path, cp, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, cell := range cp.Cells {
		if err := j.Append(cell); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, _, cellStart, ok := readFrame(whole, 6)
	if !ok {
		f.Fatal("seed journal has no header frame")
	}
	_, _, cellEnd, ok := readFrame(whole, cellStart)
	if !ok {
		f.Fatal("seed journal has no cell frame")
	}
	flipped := append([]byte(nil), whole...)
	flipped[cellEnd-1] ^= 0xff // the first cell frame's CRC
	for _, seed := range [][]byte{whole, whole[:cellStart+10], flipped} {
		f.Add(seed, false)
		f.Add(seed, true)
	}

	f.Fuzz(func(t *testing.T, raw []byte, reseal bool) {
		if reseal {
			raw = resealFrames(raw)
		}
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, off, err := LoadJournal(path)
		if err != nil && !errors.Is(err, ErrJournalTorn) {
			if got != nil {
				t.Fatalf("error %v comes with a checkpoint", err)
			}
			return
		}
		if off < 6 || off > int64(len(raw)) {
			t.Fatalf("offset %d outside [6, %d] (err %v)", off, len(raw), err)
		}
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		again, againOff, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("the intact prefix [:%d] does not load: %v", off, err)
		}
		if againOff != off {
			t.Fatalf("the intact prefix [:%d] loads to offset %d", off, againOff)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("the intact prefix [:%d] loads a different checkpoint", off)
		}
	})
}

// resealFrames returns a copy of raw in which every complete frame after
// the 6-byte preamble carries the CRC of its payload.
func resealFrames(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	for off := int64(6); int64(len(out))-off >= 5; {
		n := int64(binary.LittleEndian.Uint32(out[off+1 : off+5]))
		end := off + 9 + n
		if end > int64(len(out)) {
			break
		}
		binary.LittleEndian.PutUint32(out[end-4:end], crc32.ChecksumIEEE(out[off+5:end-4]))
		off = end
	}
	return out
}
