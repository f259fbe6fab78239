package dvb

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func sampleEIT() *EIT {
	return &EIT{
		ServiceID: 28106,
		Events: []Event{
			{
				EventID:  100,
				Start:    time.Date(2023, 8, 21, 20, 15, 0, 0, time.UTC),
				Duration: 90 * time.Minute,
				Title:    "Tatort",
				Genre:    "Krimi",
				Language: "deu",
			},
			{
				EventID:  101,
				Start:    time.Date(2023, 8, 21, 21, 45, 0, 0, time.UTC),
				Duration: 45*time.Minute + 30*time.Second,
				Title:    "Tagesthemen",
				Genre:    "Nachrichten",
				Language: "deu",
			},
		},
	}
}

func TestEITRoundTrip(t *testing.T) {
	want := sampleEIT()
	section, err := EncodeEIT(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEIT(section)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServiceID != want.ServiceID {
		t.Errorf("service id = %d", got.ServiceID)
	}
	if len(got.Events) != 2 {
		t.Fatalf("events = %d", len(got.Events))
	}
	for i := range want.Events {
		w, g := want.Events[i], got.Events[i]
		if g.EventID != w.EventID || g.Title != w.Title || g.Genre != w.Genre || g.Language != w.Language {
			t.Errorf("event %d = %+v, want %+v", i, g, w)
		}
		if !g.Start.Equal(w.Start) {
			t.Errorf("event %d start = %v, want %v", i, g.Start, w.Start)
		}
		if g.Duration != w.Duration {
			t.Errorf("event %d duration = %v, want %v", i, g.Duration, w.Duration)
		}
	}
	if p := got.Present(); p == nil || p.Title != "Tatort" {
		t.Errorf("Present() = %+v", p)
	}
}

func TestEITRejectsCorruption(t *testing.T) {
	section := MustEncodeEIT(sampleEIT())
	bad := append([]byte(nil), section...)
	bad[0] = 0x42
	if _, err := DecodeEIT(bad); !errors.Is(err, ErrNotEIT) {
		t.Errorf("wrong table id: err = %v", err)
	}
	bad = append([]byte(nil), section...)
	bad[20] ^= 0xFF
	if _, err := DecodeEIT(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corrupt body: err = %v", err)
	}
	for _, n := range []int{0, 2, 10, len(section) - 1} {
		if _, err := DecodeEIT(section[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestEmptyEIT(t *testing.T) {
	e := &EIT{ServiceID: 5}
	got, err := DecodeEIT(MustEncodeEIT(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Present() != nil {
		t.Error("empty table has a present event")
	}
}

func TestMJDRoundTripProperty(t *testing.T) {
	f := func(dayOffset uint16, hh, mm, ss uint8) bool {
		start := time.Date(2023, 1, 1, int(hh)%24, int(mm)%60, int(ss)%60, 0, time.UTC).
			AddDate(0, 0, int(dayOffset)%3650)
		buf, err := appendMJDUTC(nil, start)
		if err != nil {
			return false
		}
		got, err := decodeMJDUTC(buf)
		return err == nil && got.Equal(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEITTimeEdges: the start time is EN 300 468 Annex C's (its worked
// example decodes), both ends of the 16-bit day range round-trip and a
// start beyond them or a duration of 100 hours is refused, and a start
// time that is not BCD fails DecodeEIT with the matchable ErrEITTime.
func TestEITTimeEdges(t *testing.T) {
	got, err := decodeMJDUTC([]byte{0xC0, 0x79, 0x12, 0x45, 0x00})
	if want := time.Date(1993, 10, 13, 12, 45, 0, 0, time.UTC); err != nil || !got.Equal(want) {
		t.Errorf("Annex C example decodes to %v, %v; want %v", got, err, want)
	}
	for _, start := range []time.Time{mjdEpoch, mjdEpoch.AddDate(0, 0, maxMJD).Add(23*time.Hour + 59*time.Minute + 59*time.Second)} {
		buf, err := appendMJDUTC(nil, start)
		if err != nil {
			t.Fatalf("start %v refused: %v", start, err)
		}
		if got, err := decodeMJDUTC(buf); err != nil || !got.Equal(start) {
			t.Errorf("start %v decodes to %v, %v", start, got, err)
		}
	}
	for _, ev := range []Event{
		{Start: mjdEpoch.Add(-time.Second)},
		{Start: mjdEpoch.AddDate(0, 0, maxMJD+1)},
		{Start: mjdEpoch, Duration: maxBCDDuration},
	} {
		if _, err := EncodeEIT(&EIT{Events: []Event{ev}}); err == nil {
			t.Errorf("event starting %v lasting %v accepted", ev.Start, ev.Duration)
		}
	}
	section := MustEncodeEIT(sampleEIT())
	section[3+11+4] = 0x2A // the first event's hour byte (header, table fields, event_id, MJD): not BCD
	binary.BigEndian.PutUint32(section[len(section)-4:], CRC32MPEG(section[:len(section)-4]))
	if _, err := DecodeEIT(section); !errors.Is(err, ErrEITTime) {
		t.Errorf("DecodeEIT of a non-BCD start = %v, want ErrEITTime", err)
	}
}

func TestBCDDurationRoundTripProperty(t *testing.T) {
	f := func(secs uint32) bool {
		d := time.Duration(secs%86400) * time.Second
		buf := appendBCDDuration(nil, d)
		return decodeBCDDuration(buf) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeEITValidation(t *testing.T) {
	long := make([]byte, 250)
	for i := range long {
		long[i] = 'x'
	}
	bad := &EIT{Events: []Event{{Title: string(long)}}}
	if _, err := EncodeEIT(bad); err == nil {
		t.Error("oversized title accepted")
	}
	badLang := &EIT{Events: []Event{{Title: "x", Language: "toolong"}}}
	if _, err := EncodeEIT(badLang); err == nil {
		t.Error("invalid language code accepted")
	}
}
