package dvb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// This file implements Event Information Table (EIT present/following)
// sections following the structure of ETSI EN 300 468 §5.2.4. The EIT is
// how the broadcast carries the electronic program guide; HbbTV apps read
// the current event from it and — as Section V-B shows — leak its title
// and genre to third parties. Our TV decodes the show/genre it later
// "watches" from these real binary sections.

// eitTableID is the table_id for EIT actual/present-following.
const eitTableID = 0x4E

// Event is one program in an EIT section.
type Event struct {
	EventID uint16
	Start   time.Time
	// Duration of the event.
	Duration time.Duration
	// Title and Genre are carried in a short_event_descriptor.
	Title string
	Genre string
	// Language is the ISO 639-2 code of the descriptor ("deu", "eng").
	Language string
}

// EIT is a decoded present/following table for one service.
type EIT struct {
	ServiceID uint16
	Events    []Event
}

// Present returns the currently airing event (index 0 by convention), or
// nil for an empty table.
func (t *EIT) Present() *Event {
	if len(t.Events) == 0 {
		return nil
	}
	return &t.Events[0]
}

// Errors returned by DecodeEIT.
var (
	ErrNotEIT       = errors.New("dvb: section is not an EIT (wrong table_id)")
	ErrEITTruncated = errors.New("dvb: EIT section truncated")
	// ErrEITTime reports an event start time whose hh:mm:ss is not BCD.
	ErrEITTime = errors.New("dvb: invalid BCD time")
)

// shortEventTag is the short_event_descriptor tag.
const shortEventTag = 0x4D

// EncodeEIT serializes the table into a binary section with MPEG CRC-32.
func EncodeEIT(t *EIT) ([]byte, error) {
	var loop []byte
	for _, ev := range t.Events {
		d, err := encodeEvent(ev)
		if err != nil {
			return nil, err
		}
		loop = append(loop, d...)
	}
	// Body: service_id(2) ver(1) sec(1) last(1) tsid(2) onid(2)
	// segment_last(1) last_table_id(1) + loop + CRC(4).
	bodyLen := 2 + 1 + 1 + 1 + 2 + 2 + 1 + 1 + len(loop) + 4
	if bodyLen > 0xFFF {
		return nil, fmt.Errorf("dvb: EIT too large (%d bytes)", bodyLen)
	}
	buf := make([]byte, 0, 3+bodyLen)
	buf = append(buf, eitTableID)
	buf = append(buf, 0xB0|byte(bodyLen>>8), byte(bodyLen))
	buf = binary.BigEndian.AppendUint16(buf, t.ServiceID)
	buf = append(buf, 0xC1)       // reserved, version 0, current_next 1
	buf = append(buf, 0x00, 0x00) // section_number, last_section_number
	buf = append(buf, 0x00, 0x01) // transport_stream_id
	buf = append(buf, 0x00, 0x01) // original_network_id
	buf = append(buf, 0x00)       // segment_last_section_number
	buf = append(buf, eitTableID) // last_table_id
	buf = append(buf, loop...)
	crc := CRC32MPEG(buf)
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return buf, nil
}

func encodeEvent(ev Event) ([]byte, error) {
	desc, err := encodeShortEvent(ev)
	if err != nil {
		return nil, err
	}
	if ev.Duration >= maxBCDDuration {
		return nil, fmt.Errorf("dvb: event duration %v does not fit hh:mm:ss", ev.Duration)
	}
	out := make([]byte, 0, 12+len(desc))
	out = binary.BigEndian.AppendUint16(out, ev.EventID)
	if out, err = appendMJDUTC(out, ev.Start); err != nil {
		return nil, err
	}
	out = appendBCDDuration(out, ev.Duration)
	if len(desc) > 0xFFF {
		return nil, fmt.Errorf("dvb: event descriptors too large")
	}
	// running_status=4 (running), free_CA_mode=0.
	out = append(out, 0x80|byte(len(desc)>>8), byte(len(desc)))
	out = append(out, desc...)
	return out, nil
}

func encodeShortEvent(ev Event) ([]byte, error) {
	lang := ev.Language
	if lang == "" {
		lang = "deu"
	}
	if len(lang) != 3 {
		return nil, fmt.Errorf("dvb: language code %q must be 3 chars", lang)
	}
	if len(ev.Title) > 200 || len(ev.Genre) > 200 {
		return nil, fmt.Errorf("dvb: event text too long")
	}
	body := make([]byte, 0, 5+len(ev.Title)+len(ev.Genre))
	body = append(body, lang...)
	body = append(body, byte(len(ev.Title)))
	body = append(body, ev.Title...)
	// The genre travels in the text field, as German broadcasters do.
	body = append(body, byte(len(ev.Genre)))
	body = append(body, ev.Genre...)
	if len(body) > 0xFF {
		return nil, fmt.Errorf("dvb: short event descriptor too large")
	}
	return append([]byte{shortEventTag, byte(len(body))}, body...), nil
}

// DecodeEIT parses a binary EIT section, validating table id and CRC.
func DecodeEIT(section []byte) (*EIT, error) {
	if len(section) < 3 {
		return nil, ErrEITTruncated
	}
	if section[0] != eitTableID {
		return nil, ErrNotEIT
	}
	secLen := int(section[1]&0x0F)<<8 | int(section[2])
	if len(section) != 3+secLen || secLen < 15 {
		return nil, ErrEITTruncated
	}
	wantCRC := binary.BigEndian.Uint32(section[len(section)-4:])
	if CRC32MPEG(section[:len(section)-4]) != wantCRC {
		return nil, ErrBadCRC
	}
	body := section[3 : len(section)-4]
	t := &EIT{ServiceID: binary.BigEndian.Uint16(body[0:2])}
	loop := body[11:]
	for len(loop) > 0 {
		if len(loop) < 12 {
			return nil, ErrEITTruncated
		}
		ev := Event{EventID: binary.BigEndian.Uint16(loop[0:2])}
		var err error
		ev.Start, err = decodeMJDUTC(loop[2:7])
		if err != nil {
			return nil, err
		}
		ev.Duration = decodeBCDDuration(loop[7:10])
		descLen := int(loop[10]&0x0F)<<8 | int(loop[11])
		loop = loop[12:]
		if descLen > len(loop) {
			return nil, ErrEITTruncated
		}
		if err := decodeEventDescriptors(loop[:descLen], &ev); err != nil {
			return nil, err
		}
		loop = loop[descLen:]
		t.Events = append(t.Events, ev)
	}
	return t, nil
}

func decodeEventDescriptors(d []byte, ev *Event) error {
	for len(d) > 0 {
		if len(d) < 2 {
			return ErrEITTruncated
		}
		tag, dlen := d[0], int(d[1])
		d = d[2:]
		if dlen > len(d) {
			return ErrEITTruncated
		}
		payload := d[:dlen]
		d = d[dlen:]
		if tag != shortEventTag {
			continue
		}
		if len(payload) < 5 {
			return ErrEITTruncated
		}
		ev.Language = string(payload[0:3])
		titleLen := int(payload[3])
		if 4+titleLen+1 > len(payload) {
			return ErrEITTruncated
		}
		ev.Title = string(payload[4 : 4+titleLen])
		rest := payload[4+titleLen:]
		genreLen := int(rest[0])
		if 1+genreLen > len(rest) {
			return ErrEITTruncated
		}
		ev.Genre = string(rest[1 : 1+genreLen])
	}
	return nil
}

// mjdEpoch is day 0 of the Modified Julian Date, and maxMJD the last day
// its 16 bits reach (2038-04-22).
var mjdEpoch = time.Date(1858, time.November, 17, 0, 0, 0, 0, time.UTC)

const maxMJD = 0xFFFF

// appendMJDUTC encodes a start time as 2-byte Modified Julian Date plus
// 3 bytes of BCD hh:mm:ss (EN 300 468 Annex C). The day is counted from
// mjdEpoch exactly; over the years Annex C's conversion formulas are valid
// for (from 1900-03-01) that is the day they give. A start outside the
// days 16 bits reach is an error.
func appendMJDUTC(buf []byte, t time.Time) ([]byte, error) {
	t = t.UTC()
	d := t.Sub(mjdEpoch)
	if d < 0 || d >= (maxMJD+1)*24*time.Hour {
		return nil, fmt.Errorf("dvb: event start %v outside the MJD range", t)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(d/(24*time.Hour)))
	buf = append(buf, toBCD(t.Hour()), toBCD(t.Minute()), toBCD(t.Second()))
	return buf, nil
}

// decodeMJDUTC is appendMJDUTC's inverse. BCD digits of up to 99 hours,
// minutes or seconds roll over into the next unit, as time.Date does.
func decodeMJDUTC(b []byte) (time.Time, error) {
	if len(b) < 5 {
		return time.Time{}, ErrEITTruncated
	}
	mjd := int(binary.BigEndian.Uint16(b[0:2]))
	h, err1 := fromBCD(b[2])
	mi, err2 := fromBCD(b[3])
	s, err3 := fromBCD(b[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return time.Time{}, ErrEITTime
	}
	return time.Date(mjdEpoch.Year(), mjdEpoch.Month(), mjdEpoch.Day()+mjd, h, mi, s, 0, time.UTC), nil
}

// maxBCDDuration is the first duration whose hours need three BCD digits.
const maxBCDDuration = 100 * time.Hour

func appendBCDDuration(buf []byte, d time.Duration) []byte {
	total := int(d.Seconds())
	if total < 0 {
		total = 0
	}
	return append(buf, toBCD(total/3600), toBCD(total/60%60), toBCD(total%60))
}

func decodeBCDDuration(b []byte) time.Duration {
	h, err1 := fromBCD(b[0])
	m, err2 := fromBCD(b[1])
	s, err3 := fromBCD(b[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0
	}
	return time.Duration(h*3600+m*60+s) * time.Second
}

func toBCD(v int) byte {
	return byte(v/10<<4 | v%10)
}

func fromBCD(b byte) (int, error) {
	hi, lo := int(b>>4), int(b&0x0F)
	if hi > 9 || lo > 9 {
		return 0, fmt.Errorf("dvb: invalid BCD byte %#02x", b)
	}
	return hi*10 + lo, nil
}

// MustEncodeEIT is EncodeEIT for statically-known-good tables.
func MustEncodeEIT(t *EIT) []byte {
	b, err := EncodeEIT(t)
	if err != nil {
		panic(err)
	}
	return b
}
