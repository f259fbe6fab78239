package dvb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements Service Description Table (SDT) sections following
// the structure of ETSI EN 300 468 §5.2.3. The SDT carries, per service,
// the name, provider, type (TV/radio), and scrambling flag — the channel
// metadata the study's filtering funnel consumed (steps 1-3). The receiver
// decodes these real binary sections during the scan.

// sdtTableID is the table_id for SDT actual transport stream.
const sdtTableID = 0x42

// serviceDescriptorTag is the service_descriptor tag.
const serviceDescriptorTag = 0x48

// DVB service types (EN 300 468 table 87).
const (
	ServiceTypeTV    = 0x01
	ServiceTypeRadio = 0x02
)

// SDTEntry is one service row in an SDT section.
type SDTEntry struct {
	ServiceID uint16
	Type      byte // ServiceTypeTV or ServiceTypeRadio
	Provider  string
	Name      string
	Scrambled bool // free_CA_mode: a CI module is required
	// Running reports the running_status "running" state; the funnel's
	// "invisible" services are announced but not running.
	Running bool
}

// SDT is a decoded service description table.
type SDT struct {
	TransportStreamID uint16
	Entries           []SDTEntry
}

// Errors returned by DecodeSDT.
var (
	ErrNotSDT       = errors.New("dvb: section is not an SDT (wrong table_id)")
	ErrSDTTruncated = errors.New("dvb: SDT section truncated")
)

// EncodeSDT serializes the table into a binary section with MPEG CRC-32.
func EncodeSDT(t *SDT) ([]byte, error) {
	var loop []byte
	for _, e := range t.Entries {
		d, err := encodeSDTEntry(e)
		if err != nil {
			return nil, err
		}
		loop = append(loop, d...)
	}
	// Body: tsid(2) ver(1) sec(1) last(1) onid(2) reserved(1) + loop + CRC.
	bodyLen := 2 + 1 + 1 + 1 + 2 + 1 + len(loop) + 4
	if bodyLen > 0xFFF {
		return nil, fmt.Errorf("dvb: SDT too large (%d bytes)", bodyLen)
	}
	buf := make([]byte, 0, 3+bodyLen)
	buf = append(buf, sdtTableID)
	buf = append(buf, 0xB0|byte(bodyLen>>8), byte(bodyLen))
	buf = binary.BigEndian.AppendUint16(buf, t.TransportStreamID)
	buf = append(buf, 0xC1)       // reserved, version 0, current_next 1
	buf = append(buf, 0x00, 0x00) // section_number, last_section_number
	buf = append(buf, 0x00, 0x01) // original_network_id
	buf = append(buf, 0xFF)       // reserved_future_use
	buf = append(buf, loop...)
	crc := CRC32MPEG(buf)
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return buf, nil
}

func encodeSDTEntry(e SDTEntry) ([]byte, error) {
	// The service descriptor's one length byte covers type, both length
	// bytes and both strings.
	if len(e.Provider) > 200 || len(e.Name) > 200 || 3+len(e.Provider)+len(e.Name) > 0xFF {
		return nil, fmt.Errorf("dvb: SDT strings too long for service %d", e.ServiceID)
	}
	// service_descriptor: type(1) provider_len(1) provider name_len(1) name.
	desc := make([]byte, 0, 5+len(e.Provider)+len(e.Name))
	desc = append(desc, serviceDescriptorTag, byte(3+len(e.Provider)+len(e.Name)))
	desc = append(desc, e.Type)
	desc = append(desc, byte(len(e.Provider)))
	desc = append(desc, e.Provider...)
	desc = append(desc, byte(len(e.Name)))
	desc = append(desc, e.Name...)

	out := make([]byte, 0, 5+len(desc))
	out = binary.BigEndian.AppendUint16(out, e.ServiceID)
	out = append(out, 0xFC) // reserved + EIT flags
	// running_status(3) free_CA_mode(1) descriptors_loop_length(12).
	status := byte(0x1) // not running
	if e.Running {
		status = 0x4
	}
	b := status << 5
	if e.Scrambled {
		b |= 0x10
	}
	if len(desc) > 0xFFF {
		return nil, fmt.Errorf("dvb: SDT descriptor loop too large")
	}
	out = append(out, b|byte(len(desc)>>8), byte(len(desc)))
	out = append(out, desc...)
	return out, nil
}

// DecodeSDT parses a binary SDT section, validating table id and CRC.
func DecodeSDT(section []byte) (*SDT, error) {
	if len(section) < 3 {
		return nil, ErrSDTTruncated
	}
	if section[0] != sdtTableID {
		return nil, ErrNotSDT
	}
	secLen := int(section[1]&0x0F)<<8 | int(section[2])
	if len(section) != 3+secLen || secLen < 12 {
		return nil, ErrSDTTruncated
	}
	wantCRC := binary.BigEndian.Uint32(section[len(section)-4:])
	if CRC32MPEG(section[:len(section)-4]) != wantCRC {
		return nil, ErrBadCRC
	}
	body := section[3 : len(section)-4]
	t := &SDT{TransportStreamID: binary.BigEndian.Uint16(body[0:2])}
	loop := body[8:]
	for len(loop) > 0 {
		if len(loop) < 5 {
			return nil, ErrSDTTruncated
		}
		e := SDTEntry{ServiceID: binary.BigEndian.Uint16(loop[0:2])}
		status := loop[3] >> 5
		e.Running = status == 0x4
		e.Scrambled = loop[3]&0x10 != 0
		descLen := int(loop[3]&0x0F)<<8 | int(loop[4])
		loop = loop[5:]
		if descLen > len(loop) {
			return nil, ErrSDTTruncated
		}
		if err := decodeSDTDescriptors(loop[:descLen], &e); err != nil {
			return nil, err
		}
		loop = loop[descLen:]
		t.Entries = append(t.Entries, e)
	}
	return t, nil
}

func decodeSDTDescriptors(d []byte, e *SDTEntry) error {
	for len(d) > 0 {
		if len(d) < 2 {
			return ErrSDTTruncated
		}
		tag, dlen := d[0], int(d[1])
		d = d[2:]
		if dlen > len(d) {
			return ErrSDTTruncated
		}
		payload := d[:dlen]
		d = d[dlen:]
		if tag != serviceDescriptorTag {
			continue
		}
		if len(payload) < 3 {
			return ErrSDTTruncated
		}
		e.Type = payload[0]
		provLen := int(payload[1])
		if 2+provLen+1 > len(payload) {
			return ErrSDTTruncated
		}
		e.Provider = string(payload[2 : 2+provLen])
		rest := payload[2+provLen:]
		nameLen := int(rest[0])
		if 1+nameLen > len(rest) {
			return ErrSDTTruncated
		}
		e.Name = string(rest[1 : 1+nameLen])
	}
	return nil
}

// MustEncodeSDT is EncodeSDT for statically-known-good tables.
func MustEncodeSDT(t *SDT) []byte {
	b, err := EncodeSDT(t)
	if err != nil {
		panic(err)
	}
	return b
}

// ServiceFromSDT fills a Service's funnel-relevant metadata from a decoded
// SDT entry (name, radio flag, encryption, running state) — what a real
// receiver does during the channel scan.
func ServiceFromSDT(e SDTEntry, tp Transponder) *Service {
	return &Service{
		ServiceID:   e.ServiceID,
		Name:        e.Name,
		Transponder: tp,
		Radio:       e.Type == ServiceTypeRadio,
		Encrypted:   e.Scrambled,
		Invisible:   !e.Running,
	}
}
