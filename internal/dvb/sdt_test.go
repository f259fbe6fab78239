package dvb

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func sampleSDT() *SDT {
	return &SDT{
		TransportStreamID: 1101,
		Entries: []SDTEntry{
			{ServiceID: 28106, Type: ServiceTypeTV, Provider: "ARD", Name: "Das Erste HD", Running: true},
			{ServiceID: 28006, Type: ServiceTypeTV, Provider: "Sky", Name: "Sky Cinema", Scrambled: true, Running: true},
			{ServiceID: 28400, Type: ServiceTypeRadio, Provider: "ARD", Name: "Bayern 3", Running: true},
			{ServiceID: 28999, Type: ServiceTypeTV, Provider: "", Name: "", Running: false},
		},
	}
}

func TestSDTRoundTrip(t *testing.T) {
	want := sampleSDT()
	got, err := DecodeSDT(MustEncodeSDT(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.TransportStreamID != want.TransportStreamID {
		t.Errorf("tsid = %d", got.TransportStreamID)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
}

func TestSDTRejectsCorruption(t *testing.T) {
	section := MustEncodeSDT(sampleSDT())
	bad := append([]byte(nil), section...)
	bad[0] = 0x11
	if _, err := DecodeSDT(bad); !errors.Is(err, ErrNotSDT) {
		t.Errorf("wrong table id: %v", err)
	}
	bad = append([]byte(nil), section...)
	bad[15] ^= 0x5A
	if _, err := DecodeSDT(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corruption: %v", err)
	}
	for _, n := range []int{0, 5, len(section) - 2} {
		if _, err := DecodeSDT(section[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

// TestServiceFromSDT: the channel scan fills each service's
// funnel-relevant metadata (name, radio flag, encryption, running state)
// from the SDT section it carries, as a real receiver does. Every service
// starts with the opposite flags, so a field the scan does not set fails.
func TestServiceFromSDT(t *testing.T) {
	tsid := sampleSDT().TransportStreamID
	var universe []*Service
	for i, e := range sampleSDT().Entries {
		s := mkService("placeholder", Astra1L, 11494, e.ServiceID)
		s.Radio = e.Type != ServiceTypeRadio
		s.Encrypted = !e.Scrambled
		s.Invisible = e.Running
		s.SDTSection = MustEncodeSDT(&SDT{TransportStreamID: tsid, Entries: sampleSDT().Entries[i : i+1]})
		universe = append(universe, s)
	}
	tp := universe[0].Transponder
	got := NewReceiver().Scan(universe).Services
	if len(got) != 4 {
		t.Fatalf("scan kept %d services, want 4", len(got))
	}
	bySID := map[uint16]*Service{}
	for _, s := range got {
		bySID[s.ServiceID] = s
	}
	tv, pay, radio, ghost := bySID[28106], bySID[28006], bySID[28400], bySID[28999]
	if tv.Name != "Das Erste HD" || tv.Radio || tv.Encrypted || tv.Invisible {
		t.Errorf("tv service = %+v", tv)
	}
	if pay.Name != "Sky Cinema" || !pay.Encrypted || pay.Radio || pay.Invisible {
		t.Errorf("scrambled service = %+v", pay)
	}
	if radio.Name != "Bayern 3" || !radio.Radio || radio.Encrypted || radio.Invisible {
		t.Errorf("radio service = %+v", radio)
	}
	if !ghost.Invisible || ghost.Name != "" {
		t.Errorf("not-running service = %+v", ghost)
	}
	// The funnel's metadata steps act on exactly these fields.
	if tv.Transponder != tp {
		t.Error("transponder lost")
	}
}

// Property: SDT entries round-trip for arbitrary printable names.
func TestSDTEntryRoundTripProperty(t *testing.T) {
	letters := "ABCDEFGHIJKLMNOPQRSTUVWXYZ abcdefghijklmnopqrstuvwxyz0123456789"
	mkName := func(seed uint32, n int) string {
		out := make([]byte, n%40)
		for i := range out {
			out[i] = letters[(int(seed)+i*7)%len(letters)]
		}
		return string(out)
	}
	f := func(sid uint16, seedP, seedN uint32, scrambled, running bool) bool {
		in := &SDT{Entries: []SDTEntry{{
			ServiceID: sid,
			Type:      ServiceTypeTV,
			Provider:  mkName(seedP, int(seedP)),
			Name:      mkName(seedN, int(seedN)),
			Scrambled: scrambled,
			Running:   running,
		}}}
		sec, err := EncodeSDT(in)
		if err != nil {
			return false
		}
		out, err := DecodeSDT(sec)
		return err == nil && len(out.Entries) == 1 && out.Entries[0] == in.Entries[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeSDTDescriptorLength: a provider and name that fit the 200-byte
// limit each but not the descriptor's one length byte together are
// refused instead of wrapping the length.
func TestEncodeSDTDescriptorLength(t *testing.T) {
	long := strings.Repeat("x", 130)
	if _, err := EncodeSDT(&SDT{Entries: []SDTEntry{{Provider: long, Name: long}}}); err == nil {
		t.Error("a 263-byte service descriptor was accepted")
	}
	fits := strings.Repeat("y", 126)
	sec, err := EncodeSDT(&SDT{Entries: []SDTEntry{{Provider: fits, Name: fits}}})
	if err != nil {
		t.Fatalf("a 255-byte service descriptor was refused: %v", err)
	}
	if got, err := DecodeSDT(sec); err != nil || got.Entries[0].Name != fits {
		t.Errorf("round trip = %+v, %v", got, err)
	}
}
