// Package dvb models the broadcast side of the HbbTV ecosystem: satellites,
// transponders, and the services (TV channels) they carry, including the
// Application Information Table (AIT) that encodes the entry-point URL of a
// channel's HbbTV application into the broadcast signal (ETSI TS 102 809).
//
// The paper received 3,575 services from three satellites with a parabolic
// antenna; this package is the synthetic equivalent of antenna + demodulator.
// AITs are encoded to and decoded from a realistic binary section format
// (section syntax with an MPEG-2 CRC-32) so that the receiver exercises the
// same parse-and-extract path a real HbbTV terminal would.
package dvb

import (
	"fmt"
	"sort"
)

// Satellite identifies one of the orbital positions received by the setup.
type Satellite struct {
	Name     string // e.g. "Astra 1L"
	Position string // e.g. "19.2E"
}

// The three satellites the study received from its physical location.
var (
	Astra1L   = Satellite{Name: "Astra 1L", Position: "19.2E"}
	HotBird   = Satellite{Name: "Hot Bird 13E", Position: "13.0E"}
	Eutelsat  = Satellite{Name: "Eutelsat 16E", Position: "16.0E"}
	AllOrbits = []Satellite{Astra1L, HotBird, Eutelsat}
)

// Polarization of a transponder carrier.
type Polarization int

// Transponder polarizations.
const (
	Horizontal Polarization = iota + 1
	Vertical
)

// String implements fmt.Stringer.
func (p Polarization) String() string {
	switch p {
	case Horizontal:
		return "H"
	case Vertical:
		return "V"
	default:
		return "?"
	}
}

// Transponder is a single carrier on a satellite, carrying multiple services.
type Transponder struct {
	Satellite    Satellite
	FrequencyMHz int
	Polarization Polarization
	SymbolRate   int
}

// ServiceCategory mirrors the satellite operators' channel categorization
// used for the per-category tracking analysis (Fig. 7).
type ServiceCategory string

// The ten channel categories present in the data set.
const (
	CategoryGeneral     ServiceCategory = "General"
	CategoryNews        ServiceCategory = "News"
	CategorySports      ServiceCategory = "Sports"
	CategoryChildren    ServiceCategory = "Children"
	CategoryDocumentary ServiceCategory = "Documentary"
	CategoryMusic       ServiceCategory = "Music"
	CategoryShopping    ServiceCategory = "Shopping"
	CategoryMovies      ServiceCategory = "Movies"
	CategoryRegional    ServiceCategory = "Regional"
	CategoryReligious   ServiceCategory = "Religious"
)

// Categories lists all known categories in a stable order.
var Categories = []ServiceCategory{
	CategoryGeneral, CategoryNews, CategorySports, CategoryChildren,
	CategoryDocumentary, CategoryMusic, CategoryShopping, CategoryMovies,
	CategoryRegional, CategoryReligious,
}

// Service is one broadcast service (a TV or radio channel) as carried on a
// transponder. The metadata mirrors what the TV's channel list exposes and
// what the study's filtering funnel consumed.
type Service struct {
	ServiceID   uint16
	Name        string
	Transponder Transponder

	Radio     bool // "Radio" metadata attribute
	Encrypted bool // requires a CI decryption module
	Invisible bool // no signal / placeholder entry
	IPTV      bool // delivered over the Internet only (out of scope)

	Language   string // dominant broadcast language, e.g. "de"
	Categories []ServiceCategory

	// CurrentShow and CurrentGenre mirror the now/next EPG data (EIT) the
	// broadcast carries; HbbTV apps leak these to third parties.
	CurrentShow  string
	CurrentGenre string

	// FlakySignal marks channels whose reception drops intermittently
	// (e.g. daytime-only broadcasts); screenshots then occasionally show
	// a "no signal" screen.
	FlakySignal bool

	// AITSection is the raw binary AIT carried in the signal; empty when
	// the service does not announce an HbbTV application.
	AITSection []byte

	// EITSection is the raw binary EIT present/following section carrying
	// the electronic program guide. CurrentShow/CurrentGenre above are the
	// generation-time source; the TV reads the aired program from this
	// section, as a real terminal would.
	EITSection []byte

	// SDTSection is the raw binary SDT row for this service. When present,
	// the receiver's scan decodes the funnel-relevant metadata (name,
	// radio, scrambling, running state) from it, overriding the struct
	// fields — the funnel then consumes what the signal actually said.
	SDTSection []byte
}

// HasAIT reports whether the broadcast signal announces an HbbTV app.
func (s *Service) HasAIT() bool { return len(s.AITSection) > 0 }

// PrimaryCategory returns the first assigned category, mirroring the paper's
// "we only used the first assigned channel category" rule, or "" if none.
func (s *Service) PrimaryCategory() ServiceCategory {
	if len(s.Categories) == 0 {
		return ""
	}
	return s.Categories[0]
}

// Bouquet is the full set of services received from a set of satellites.
type Bouquet struct {
	Services []*Service
}

// ByName returns the service with the given name, or nil.
func (b *Bouquet) ByName(name string) *Service {
	for _, s := range b.Services {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Receiver models the antenna + demodulator: it scans satellites and
// produces the channel list the TV sees.
type Receiver struct {
	// Reachable lists the orbital positions receivable from the physical
	// location of the setup. The study could receive exactly three.
	Reachable []Satellite
}

// NewReceiver returns a receiver that can see the study's three satellites.
func NewReceiver() *Receiver {
	return &Receiver{Reachable: AllOrbits}
}

// Scan filters the universe of services down to those carried by reachable
// satellites and returns them ordered by satellite, then frequency, then
// service ID — the order a channel scan produces.
func (r *Receiver) Scan(universe []*Service) *Bouquet {
	reach := make(map[Satellite]int, len(r.Reachable))
	for i, sat := range r.Reachable {
		reach[sat] = i
	}
	var got []*Service
	for _, s := range universe {
		if _, ok := reach[s.Transponder.Satellite]; !ok {
			continue
		}
		if len(s.SDTSection) > 0 {
			if sdt, err := DecodeSDT(s.SDTSection); err == nil && len(sdt.Entries) > 0 {
				e := sdt.Entries[0]
				s.Name = e.Name
				s.Radio = e.Type == ServiceTypeRadio
				s.Encrypted = e.Scrambled
				s.Invisible = !e.Running
			}
		}
		got = append(got, s)
	}
	sort.SliceStable(got, func(i, j int) bool {
		si, sj := got[i], got[j]
		if a, b := reach[si.Transponder.Satellite], reach[sj.Transponder.Satellite]; a != b {
			return a < b
		}
		if si.Transponder.FrequencyMHz != sj.Transponder.FrequencyMHz {
			return si.Transponder.FrequencyMHz < sj.Transponder.FrequencyMHz
		}
		return si.ServiceID < sj.ServiceID
	})
	return &Bouquet{Services: got}
}

// String implements fmt.Stringer for diagnostics.
func (s *Service) String() string {
	kind := "TV"
	if s.Radio {
		kind = "Radio"
	}
	return fmt.Sprintf("%s (%s, sid=%d, %s %dMHz%s)", s.Name, kind,
		s.ServiceID, s.Transponder.Satellite.Name,
		s.Transponder.FrequencyMHz, s.Transponder.Polarization)
}
