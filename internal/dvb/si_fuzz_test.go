package dvb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// resealSection returns a copy of section whose section_length field
// matches its size and whose last four bytes are the CRC of the rest, so
// a mutation reaches the decoder's body parsing instead of stopping at the
// length or CRC check. A section too short for a header and a CRC, or too
// long for the 12-bit length, comes back as is.
func resealSection(section []byte) []byte {
	if len(section) < 7 || len(section)-3 > 0xFFF {
		return section
	}
	out := bytes.Clone(section)
	n := len(out) - 3
	out[1] = out[1]&0xF0 | byte(n>>8)
	out[2] = byte(n)
	binary.BigEndian.PutUint32(out[len(out)-4:], CRC32MPEG(out[:len(out)-4]))
	return out
}

// addSectionSeeds seeds f with each section, its halves and the empty
// input, each plain and resealed.
func addSectionSeeds(f *testing.F, sections ...[]byte) {
	for _, s := range sections {
		for _, seed := range [][]byte{s, s[:len(s)/2], s[len(s)/2:]} {
			f.Add(seed, false)
			f.Add(seed, true)
		}
	}
	f.Add([]byte{}, false)
}

// wrapsOneOf reports whether err wraps one of the sentinels.
func wrapsOneOf(err error, sentinels ...error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// FuzzDecodeEIT throws arbitrary sections at the EIT decoder, optionally
// resealed. The decoder must never panic; every error wraps a package
// sentinel; and where EncodeEIT accepts the decoded table, re-encoding is
// a fixed point: the re-encoded section decodes to a table that encodes
// to the same bytes.
func FuzzDecodeEIT(f *testing.F) {
	addSectionSeeds(f, MustEncodeEIT(sampleEIT()), MustEncodeEIT(&EIT{ServiceID: 1}))
	f.Fuzz(func(t *testing.T, section []byte, reseal bool) {
		if reseal {
			section = resealSection(section)
		}
		eit, err := DecodeEIT(section)
		if err != nil {
			if eit != nil {
				t.Fatal("DecodeEIT returned both a table and an error")
			}
			if !wrapsOneOf(err, ErrNotEIT, ErrEITTruncated, ErrEITTime, ErrBadCRC) {
				t.Fatalf("error %q wraps no package sentinel", err)
			}
			return
		}
		re, err := EncodeEIT(eit)
		if err != nil {
			return
		}
		back, err := DecodeEIT(re)
		if err != nil {
			t.Fatalf("re-encoded section rejected: %v", err)
		}
		again, err := EncodeEIT(back)
		if err != nil {
			t.Fatalf("the re-encoded table no longer encodes: %v", err)
		}
		if !bytes.Equal(again, re) {
			t.Fatalf("re-encoding is not a fixed point:\n %x\n %x", re, again)
		}
	})
}

// FuzzDecodeSDT is FuzzDecodeEIT for the SDT decoder.
func FuzzDecodeSDT(f *testing.F) {
	addSectionSeeds(f, MustEncodeSDT(sampleSDT()), MustEncodeSDT(&SDT{TransportStreamID: 1}))
	f.Fuzz(func(t *testing.T, section []byte, reseal bool) {
		if reseal {
			section = resealSection(section)
		}
		sdt, err := DecodeSDT(section)
		if err != nil {
			if sdt != nil {
				t.Fatal("DecodeSDT returned both a table and an error")
			}
			if !wrapsOneOf(err, ErrNotSDT, ErrSDTTruncated, ErrBadCRC) {
				t.Fatalf("error %q wraps no package sentinel", err)
			}
			return
		}
		re, err := EncodeSDT(sdt)
		if err != nil {
			return
		}
		back, err := DecodeSDT(re)
		if err != nil {
			t.Fatalf("re-encoded section rejected: %v", err)
		}
		again, err := EncodeSDT(back)
		if err != nil {
			t.Fatalf("the re-encoded table no longer encodes: %v", err)
		}
		if !bytes.Equal(again, re) {
			t.Fatalf("re-encoding is not a fixed point:\n %x\n %x", re, again)
		}
	})
}
