package etld

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffixExact(t *testing.T) {
	tests := []struct {
		host     string
		suffix   string
		explicit bool
	}{
		{"ard.de", "de", true},
		{"www.ard.de", "de", true},
		{"bbc.co.uk", "co.uk", true},
		{"news.bbc.co.uk", "co.uk", true},
		{"orf.at", "at", true},
		{"tracker.example.xyz", "xyz", false}, // implicit * rule
	}
	for _, tt := range tests {
		got, explicit := Default.PublicSuffix(tt.host)
		if got != tt.suffix || explicit != tt.explicit {
			t.Errorf("PublicSuffix(%q) = (%q, %v), want (%q, %v)",
				tt.host, got, explicit, tt.suffix, tt.explicit)
		}
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	if s, _ := Default.PublicSuffix("foo.bar.ck"); s != "bar.ck" {
		t.Errorf("wildcard: PublicSuffix(foo.bar.ck) = %q, want bar.ck", s)
	}
	if s, _ := Default.PublicSuffix("www.ck"); s != "ck" {
		t.Errorf("exception: PublicSuffix(www.ck) = %q, want ck", s)
	}
	if d, err := Default.RegistrableDomain("www.ck"); err != nil || d != "www.ck" {
		t.Errorf("exception: RegistrableDomain(www.ck) = (%q, %v), want www.ck", d, err)
	}
}

func TestRegistrableDomain(t *testing.T) {
	tests := []struct {
		host string
		want string
	}{
		{"ard.de", "ard.de"},
		{"hbbtv.ard.de", "ard.de"},
		{"a.b.c.redbutton.de", "redbutton.de"},
		{"cdn.rtl-hbbtv.de", "rtl-hbbtv.de"},
		{"www.bbc.co.uk", "bbc.co.uk"},
		{"google-analytics.com", "google-analytics.com"},
		{"WWW.ARD.DE.", "ard.de"},
		{"ard.de:8080", "ard.de"},
	}
	for _, tt := range tests {
		got, err := RegistrableDomain(tt.host)
		if err != nil {
			t.Errorf("RegistrableDomain(%q): %v", tt.host, err)
			continue
		}
		if got != tt.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", tt.host, got, tt.want)
		}
	}
}

func TestRegistrableDomainErrors(t *testing.T) {
	for _, host := range []string{"", "de", "co.uk", "192.168.1.7", "2001:db8::1"} {
		if d, err := RegistrableDomain(host); err == nil {
			t.Errorf("RegistrableDomain(%q) = %q, want error", host, d)
		}
	}
}

func TestMustRegistrableDomainTotal(t *testing.T) {
	if got := MustRegistrableDomain("192.168.1.7"); got != "192.168.1.7" {
		t.Errorf("MustRegistrableDomain(ip) = %q", got)
	}
	if got := MustRegistrableDomain("de"); got != "de" {
		t.Errorf("MustRegistrableDomain(suffix) = %q", got)
	}
	if got := MustRegistrableDomain("sub.ard.de"); got != "ard.de" {
		t.Errorf("MustRegistrableDomain(sub.ard.de) = %q", got)
	}
}

// TestSameParty: two hosts are one party when they share a registrable
// domain, which is how the analyses compare parties.
func TestSameParty(t *testing.T) {
	if MustRegistrableDomain("hbbtv.ard.de") != MustRegistrableDomain("cdn.ard.de") {
		t.Error("subdomains of ard.de should be the same party")
	}
	if MustRegistrableDomain("ard.de") == MustRegistrableDomain("zdf.de") {
		t.Error("ard.de and zdf.de must not be the same party")
	}
}

// Property: the registrable domain of any host is a suffix of the host and
// itself has a registrable domain equal to itself (idempotence).
func TestRegistrableDomainIdempotent(t *testing.T) {
	labels := []string{"a", "tracker", "cdn", "www", "hbbtv", "x1"}
	suffixes := []string{"de", "at", "co.uk", "com", "tv"}
	f := func(li, si uint8, depth uint8) bool {
		host := suffixes[int(si)%len(suffixes)]
		n := int(depth)%3 + 1
		for i := 0; i < n; i++ {
			host = labels[(int(li)+i)%len(labels)] + "." + host
		}
		d, err := RegistrableDomain(host)
		if err != nil {
			return false
		}
		if !strings.HasSuffix(host, d) {
			return false
		}
		d2, err := RegistrableDomain(d)
		return err == nil && d2 == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewListIgnoresCommentsAndBlank(t *testing.T) {
	l := NewList([]string{"// comment", "", "  de  ", "co.uk"})
	if s, ok := l.PublicSuffix("ard.de"); s != "de" || !ok {
		t.Errorf("custom list PublicSuffix(ard.de) = (%q, %v)", s, ok)
	}
}
