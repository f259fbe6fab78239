// Package etld computes effective top-level domains (public suffixes) and
// registrable domains (eTLD+1). The paper identifies first and third parties
// by the eTLD+1 of request hosts; this package provides that primitive
// without external dependencies, using an embedded subset of the public
// suffix list that covers the European HbbTV landscape plus the standard
// wildcard/exception rule semantics of the full list.
package etld

import (
	"fmt"
	"net"
	"strings"
)

// List is a compiled set of public-suffix rules. The zero value matches
// nothing; use NewList or the package-level Default list.
type List struct {
	exact     map[string]struct{} // "co.uk"
	wildcards map[string]struct{} // "*.ck" stored as "ck"
	except    map[string]struct{} // "!www.ck" stored as "www.ck"
}

// NewList compiles rules in public-suffix-list syntax: one rule per entry,
// "*." prefix for wildcard rules and "!" prefix for exceptions. Comments and
// empty strings are ignored.
func NewList(rules []string) *List {
	l := &List{
		exact:     make(map[string]struct{}),
		wildcards: make(map[string]struct{}),
		except:    make(map[string]struct{}),
	}
	for _, r := range rules {
		r = strings.TrimSpace(strings.ToLower(r))
		if r == "" || strings.HasPrefix(r, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(r, "!"):
			l.except[strings.TrimPrefix(r, "!")] = struct{}{}
		case strings.HasPrefix(r, "*."):
			l.wildcards[strings.TrimPrefix(r, "*.")] = struct{}{}
		default:
			l.exact[r] = struct{}{}
		}
	}
	return l
}

// defaultRules embeds the slice of the public suffix list relevant to the
// European broadcast ecosystem the study measures, plus the generic TLDs
// that trackers use.
var defaultRules = []string{
	// Generic TLDs.
	"com", "net", "org", "info", "biz", "io", "tv", "eu", "dev", "app",
	"cloud", "online", "media", "digital", "live", "news", "agency",
	// European ccTLDs seen on the three satellites.
	"de", "at", "ch", "fr", "it", "uk", "nl", "be", "lu", "pl", "cz",
	"sk", "hu", "si", "hr", "rs", "ro", "bg", "gr", "tr", "es", "pt",
	"dk", "se", "no", "fi", "ru", "ua", "li",
	// Multi-label suffixes.
	"co.uk", "org.uk", "me.uk", "ac.uk", "gov.uk",
	"co.at", "or.at", "ac.at", "gv.at",
	"com.tr", "org.tr", "net.tr",
	"com.pl", "net.pl", "org.pl",
	"com.ru", "net.ru", "org.ru",
	"com.ua", "net.ua",
	"co.it", // rare but present
	// Wildcard + exception semantics kept from the PSL for correctness.
	"*.ck",
	"!www.ck",
}

// Default is the list compiled from the embedded rules.
var Default = NewList(defaultRules)

// PublicSuffix returns the public suffix of domain according to the list and
// whether the match came from an explicit rule (as opposed to the implicit
// "*" fallback that treats an unknown TLD as its own suffix).
func (l *List) PublicSuffix(domain string) (suffix string, explicit bool) {
	domain = normalize(domain)
	if domain == "" {
		return "", false
	}
	labels := strings.Split(domain, ".")
	// Walk suffixes from longest to shortest; the PSL algorithm prefers
	// the longest matching rule, with exceptions overriding wildcards.
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		if _, ok := l.except[cand]; ok {
			// Exception rule: the suffix is the candidate minus its
			// leftmost label.
			rest := strings.Join(labels[i+1:], ".")
			return rest, true
		}
		if _, ok := l.exact[cand]; ok {
			return cand, true
		}
		// Wildcard "*.ck" matches "anything.ck": candidate must have at
		// least two labels and its parent must be a wildcard base.
		if i+1 < len(labels) {
			parent := strings.Join(labels[i+1:], ".")
			if _, ok := l.wildcards[parent]; ok {
				return cand, true
			}
		}
	}
	// Implicit "*" rule: unknown TLD is its own suffix.
	return labels[len(labels)-1], false
}

// RegistrableDomain returns the eTLD+1 of host: the public suffix plus one
// label. It returns an error for hosts that are themselves public suffixes,
// IP addresses, or empty.
func (l *List) RegistrableDomain(host string) (string, error) {
	host = normalize(host)
	if host == "" {
		return "", fmt.Errorf("etld: empty host")
	}
	if ip := net.ParseIP(host); ip != nil {
		return "", fmt.Errorf("etld: %q is an IP address", host)
	}
	suffix, _ := l.PublicSuffix(host)
	if host == suffix {
		return "", fmt.Errorf("etld: %q is a public suffix", host)
	}
	if !strings.HasSuffix(host, "."+suffix) {
		return "", fmt.Errorf("etld: host %q does not end in suffix %q", host, suffix)
	}
	prefix := strings.TrimSuffix(host, "."+suffix)
	labels := strings.Split(prefix, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

// RegistrableDomain is shorthand for Default.RegistrableDomain.
func RegistrableDomain(host string) (string, error) {
	return Default.RegistrableDomain(host)
}

// MustRegistrableDomain returns the eTLD+1 of host, or host itself when no
// registrable domain can be computed (IP addresses, bare suffixes). The
// analyses use this total function so that every flow maps to some party.
func MustRegistrableDomain(host string) string {
	d, err := Default.RegistrableDomain(host)
	if err != nil {
		return normalize(host)
	}
	return d
}

func normalize(host string) string {
	host = strings.ToLower(strings.TrimSpace(host))
	host = strings.TrimSuffix(host, ".")
	// Strip a port if present (host:port); IPv6 literals in brackets are
	// handled by net.SplitHostPort only when a port exists, so do it
	// manually and conservatively.
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	host = strings.TrimPrefix(host, "[")
	host = strings.TrimSuffix(host, "]")
	return host
}
