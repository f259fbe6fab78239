package intern

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// FuzzInternRoundTrip fuzzes the intern-table determinism contract the
// columnar index build rests on:
//
//  1. round trip — String(Intern(s)) == s, and re-interning returns the
//     same ID;
//  2. dense deterministic IDs — IDs are 0..Len-1 assigned in
//     first-occurrence order of the input sequence;
//  3. chunked == serial — interning the sequence in chunk-local tables
//     (concurrently) and merging with MergeStrings yields exactly the
//     table and per-row IDs of a single serial scan.
//
// The fuzz input is split on newlines into the string sequence; the
// chunk size is derived from the sequence so the fuzzer explores
// degenerate chunkings (size 1, size >= len) as well as typical ones.
func FuzzInternRoundTrip(f *testing.F) {
	f.Add([]byte("a\nb\na\nc\nb\na"), uint8(2))
	f.Add([]byte("tracker.example\ncdn.example\ntracker.example"), uint8(1))
	f.Add([]byte(""), uint8(4))
	f.Add([]byte("\n\n\n"), uint8(3))
	f.Add([]byte("x"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunkByte uint8) {
		var seq []string
		for _, b := range bytes.Split(data, []byte("\n")) {
			seq = append(seq, string(b))
		}

		// Serial reference: one table over the whole sequence.
		serial := NewStrings(len(seq))
		serialIDs := make([]int32, len(seq))
		for i, s := range seq {
			serialIDs[i] = serial.Intern(s)
		}

		// Property 1: round trip and stable re-intern.
		for i, s := range seq {
			if got := serial.String(serialIDs[i]); got != s {
				t.Fatalf("String(Intern(%q)) = %q", s, got)
			}
			if again := serial.Intern(s); again != serialIDs[i] {
				t.Fatalf("re-Intern(%q) = %d, first gave %d", s, again, serialIDs[i])
			}
			if id, ok := serial.Lookup(s); !ok || id != serialIDs[i] {
				t.Fatalf("Lookup(%q) = (%d, %v), want (%d, true)", s, id, ok, serialIDs[i])
			}
		}

		// Property 2: dense first-occurrence IDs. Walking the sequence,
		// each previously unseen string must carry the next dense ID.
		seen := make(map[string]int32)
		next := int32(0)
		for i, s := range seq {
			want, ok := seen[s]
			if !ok {
				want = next
				seen[s] = next
				next++
			}
			if serialIDs[i] != want {
				t.Fatalf("ID of seq[%d]=%q is %d, want first-occurrence-dense %d", i, s, serialIDs[i], want)
			}
		}
		if serial.Len() != int(next) {
			t.Fatalf("Len() = %d, want %d distinct", serial.Len(), next)
		}

		// Property 3: chunked-parallel == serial. Intern each chunk into
		// its own local table concurrently, merge in chunk order, and
		// compare both the global table and every row's remapped ID.
		chunk := int(chunkByte)
		if chunk < 1 {
			chunk = 1
		}
		nChunks := (len(seq) + chunk - 1) / chunk
		locals := make([]*Strings, nChunks)
		localIDs := make([][]int32, nChunks)
		var wg sync.WaitGroup
		for c := 0; c < nChunks; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lo, hi := c*chunk, (c+1)*chunk
				if hi > len(seq) {
					hi = len(seq)
				}
				l := NewStrings(hi - lo)
				ids := make([]int32, 0, hi-lo)
				for _, s := range seq[lo:hi] {
					ids = append(ids, l.Intern(s))
				}
				locals[c] = l
				localIDs[c] = ids
			}(c)
		}
		wg.Wait()

		global, remaps := MergeStrings(locals)
		if !reflect.DeepEqual(global.All(), serial.All()) {
			t.Fatalf("merged table differs from serial:\nmerged %q\nserial %q", global.All(), serial.All())
		}
		row := 0
		for c := 0; c < nChunks; c++ {
			for _, localID := range localIDs[c] {
				if got := remaps[c][localID]; got != serialIDs[row] {
					t.Fatalf("row %d (chunk %d): remapped ID %d, serial %d", row, c, got, serialIDs[row])
				}
				row++
			}
		}
		if row != len(seq) {
			t.Fatalf("chunking covered %d of %d rows", row, len(seq))
		}

		// Absorb with a pre-seeded table keeps seeded IDs stable — the
		// channel table is built this way (metadata first, flows after).
		if len(seq) > 0 {
			seeded := NewStrings(1 + serial.Len())
			seeded.Intern(seq[0])
			seeded.Absorb(locals)
			if got := seeded.String(0); got != seq[0] {
				t.Fatalf("seeded entry moved: String(0) = %q, want %q", got, seq[0])
			}
			if id, ok := seeded.Lookup(seq[0]); !ok || id != 0 {
				t.Fatalf("seeded Lookup(%q) = (%d, %v), want (0, true)", seq[0], id, ok)
			}
		}
	})
}
