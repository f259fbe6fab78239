package dvb

import (
	"strings"
	"testing"
)

func mkService(name string, sat Satellite, freq int, sid uint16) *Service {
	return &Service{
		ServiceID: sid,
		Name:      name,
		Transponder: Transponder{
			Satellite:    sat,
			FrequencyMHz: freq,
			Polarization: Horizontal,
			SymbolRate:   27500,
		},
		Language: "de",
	}
}

func TestReceiverScanFiltersUnreachable(t *testing.T) {
	thor := Satellite{Name: "Thor", Position: "0.8W"}
	universe := []*Service{
		mkService("Das Erste HD", Astra1L, 11494, 1),
		mkService("NRK1", thor, 10872, 2),
		mkService("Rai 1", HotBird, 11766, 3),
	}
	b := NewReceiver().Scan(universe)
	if len(b.Services) != 2 {
		t.Fatalf("scan returned %d services, want 2", len(b.Services))
	}
	for _, s := range b.Services {
		if s.Transponder.Satellite == thor {
			t.Errorf("scan returned unreachable service %s", s.Name)
		}
	}
}

func TestReceiverScanOrdering(t *testing.T) {
	universe := []*Service{
		mkService("C", Eutelsat, 11000, 9),
		mkService("B", Astra1L, 12000, 5),
		mkService("A", Astra1L, 11000, 7),
		mkService("A2", Astra1L, 11000, 3),
	}
	b := NewReceiver().Scan(universe)
	got := make([]string, len(b.Services))
	for i, s := range b.Services {
		got[i] = s.Name
	}
	want := "A2,A,B,C" // Astra first (reachable order), freq asc, sid asc
	if strings.Join(got, ",") != want {
		t.Fatalf("scan order = %v, want %s", got, want)
	}
}

func TestBouquetLookup(t *testing.T) {
	b := &Bouquet{Services: []*Service{
		mkService("ZDF", Astra1L, 11953, 1),
		mkService("ORF1", Astra1L, 12692, 2),
		mkService("Rai 1", HotBird, 11766, 3),
	}}
	if s := b.ByName("ORF1"); s == nil || s.ServiceID != 2 {
		t.Errorf("ByName(ORF1) = %v", s)
	}
	if s := b.ByName("missing"); s != nil {
		t.Errorf("ByName(missing) = %v, want nil", s)
	}
}

func TestServiceAccessors(t *testing.T) {
	s := mkService("KiKA", Astra1L, 11954, 11)
	if s.HasAIT() {
		t.Error("service without AIT section reports HasAIT")
	}
	s.AITSection = MustEncodeAIT(&AIT{Applications: []Application{{Control: ControlAutostart, URLBase: "http://kika.de/", InitialPath: "app/"}}})
	if !s.HasAIT() {
		t.Error("service with AIT section reports !HasAIT")
	}
	if got := s.PrimaryCategory(); got != "" {
		t.Errorf("PrimaryCategory with no categories = %q", got)
	}
	s.Categories = []ServiceCategory{CategoryChildren, CategoryGeneral}
	if got := s.PrimaryCategory(); got != CategoryChildren {
		t.Errorf("PrimaryCategory = %q, want Children", got)
	}
}

func TestPolarizationString(t *testing.T) {
	if Horizontal.String() != "H" || Vertical.String() != "V" {
		t.Error("polarization strings wrong")
	}
	if Polarization(99).String() != "?" {
		t.Error("unknown polarization should be ?")
	}
}

func TestServiceString(t *testing.T) {
	s := mkService("MTV", HotBird, 11013, 77)
	str := s.String()
	for _, frag := range []string{"MTV", "TV", "Hot Bird", "11013"} {
		if !strings.Contains(str, frag) {
			t.Errorf("String() = %q missing %q", str, frag)
		}
	}
	s.Radio = true
	if !strings.Contains(s.String(), "Radio") {
		t.Errorf("radio service String() = %q", s.String())
	}
}
