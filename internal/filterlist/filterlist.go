// Package filterlist implements the tracker filter lists the paper
// evaluates against HbbTV traffic: an Adblock-Plus-syntax subset engine
// (EasyList, EasyPrivacy) and a hosts-file engine (Pi-hole, Perflyst's
// PiHoleBlocklist, Kamran's SmartTV list).
//
// The paper's finding is that these lists, tuned for the Web, miss most
// HbbTV trackers: EasyList flagged 0.5% of observed URLs, EasyPrivacy
// 0.15%, Pi-hole 1.17%. The engine makes those hit-rates measurable: list
// membership is data, matching is real.
package filterlist

import (
	"bufio"
	"fmt"
	"net/url"
	"strings"
)

// List is a compiled filter list.
type List struct {
	name string
	// domainRules indexes ||domain^ rules by their anchor domain.
	domainRules map[string][]rule
	// genericRules are substring/anchored rules without a domain anchor.
	genericRules []rule
	// exceptions are @@ rules (checked after a block match).
	exceptions []rule
	size       int
}

type rule struct {
	raw     string
	domain  string // for ||domain rules
	pattern string // remaining pattern after the anchor ("" = any)
	anchor  bool   // |http:// start anchor
}

// Name returns the list's name.
func (l *List) Name() string { return l.name }

// Len returns the number of active rules.
func (l *List) Len() int { return l.size }

// Parse compiles Adblock-Plus-syntax text. Unsupported constructs
// (element hiding "##", regexp rules "/…/") are skipped, as ad blockers
// skip network-irrelevant rules when URL matching.
func Parse(name, text string) (*List, error) {
	l := &List{name: name, domainRules: make(map[string][]rule)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			continue
		}
		if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
			continue // element hiding
		}
		exception := false
		if rest, ok := strings.CutPrefix(line, "@@"); ok {
			exception = true
			line = rest
		}
		// Strip options; $domain=… scoping is not needed for this corpus.
		if i := strings.LastIndexByte(line, '$'); i > 0 {
			line = line[:i]
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "/") && strings.HasSuffix(line, "/") && len(line) > 1 {
			continue // regexp rule
		}
		r, ok := compileRule(line)
		if !ok {
			continue
		}
		l.size++
		switch {
		case exception:
			l.exceptions = append(l.exceptions, r)
		case r.domain != "":
			l.domainRules[r.domain] = append(l.domainRules[r.domain], r)
		default:
			l.genericRules = append(l.genericRules, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("filterlist: parse %s: %w", name, err)
	}
	return l, nil
}

// MustParse is Parse for embedded, known-good lists.
func MustParse(name, text string) *List {
	l, err := Parse(name, text)
	if err != nil {
		panic(err)
	}
	return l
}

func compileRule(line string) (rule, bool) {
	r := rule{raw: line}
	if rest, ok := strings.CutPrefix(line, "||"); ok {
		// Domain anchor: domain runs until the first separator.
		end := strings.IndexAny(rest, "/^*")
		if end < 0 {
			r.domain = strings.ToLower(rest)
			r.pattern = "^"
		} else {
			r.domain = strings.ToLower(rest[:end])
			r.pattern = rest[end:]
		}
		if r.domain == "" {
			return rule{}, false
		}
		return r, true
	}
	if rest, ok := strings.CutPrefix(line, "|"); ok {
		r.anchor = true
		r.pattern = strings.TrimSuffix(rest, "|")
		return r, r.pattern != ""
	}
	r.pattern = line
	return r, true
}

// ParseHosts compiles a hosts-format block list ("0.0.0.0 domain" lines,
// bare domains allowed), as used by Pi-hole and the smart-TV lists.
func ParseHosts(name, text string) (*List, error) {
	l := &List{name: name, domainRules: make(map[string][]rule)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		host := fields[0]
		if len(fields) >= 2 && (host == "0.0.0.0" || host == "127.0.0.1" || host == "::1") {
			host = fields[1]
		}
		host = strings.ToLower(strings.TrimSuffix(host, "."))
		if host == "" || host == "localhost" || host == "0.0.0.0" {
			continue
		}
		l.size++
		l.domainRules[host] = append(l.domainRules[host], rule{raw: line, domain: host, pattern: "^"})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("filterlist: parse hosts %s: %w", name, err)
	}
	return l, nil
}

// MustParseHosts is ParseHosts for embedded lists.
func MustParseHosts(name, text string) *List {
	l, err := ParseHosts(name, text)
	if err != nil {
		panic(err)
	}
	return l
}

// Append adds more rules (ABP syntax) to the list, returning any parse
// error. The world generator uses this to extend base lists with
// ecosystem-specific entries.
func (l *List) Append(text string) error {
	extra, err := Parse(l.name, text)
	if err != nil {
		return err
	}
	for d, rs := range extra.domainRules {
		l.domainRules[d] = append(l.domainRules[d], rs...)
	}
	l.genericRules = append(l.genericRules, extra.genericRules...)
	l.exceptions = append(l.exceptions, extra.exceptions...)
	l.size += extra.size
	return nil
}

// Match reports whether rawURL is flagged by the list and returns the raw
// text of the first matching rule.
func (l *List) Match(rawURL string) (string, bool) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return "", false
	}
	host := strings.ToLower(u.Hostname())
	rest := u.EscapedPath()
	if u.RawQuery != "" {
		rest += "?" + u.RawQuery
	}
	if rest == "" {
		rest = "/"
	}

	matched := ""
	// Domain-anchored rules: walk the label chain.
	for h := host; matched == "" && h != ""; {
		for _, r := range l.domainRules[h] {
			if matchDomainPattern(r.pattern, rest) {
				matched = r.raw
				break
			}
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	if matched == "" {
		full := u.Scheme + "://" + host + rest
		for _, r := range l.genericRules {
			if r.anchor {
				if wildcardMatch(r.pattern+"*", full) {
					matched = r.raw
					break
				}
			} else if wildcardMatch("*"+r.pattern+"*", full) {
				matched = r.raw
				break
			}
		}
	}
	if matched == "" {
		return "", false
	}
	// Exceptions override.
	full := u.Scheme + "://" + host + rest
	for _, r := range l.exceptions {
		pat := r.pattern
		if r.domain != "" {
			if hostMatches(host, r.domain) && matchDomainPattern(pat, rest) {
				return "", false
			}
			continue
		}
		if wildcardMatch("*"+pat+"*", full) {
			return "", false
		}
	}
	return matched, true
}

// MatchURL is a convenience boolean form of Match.
func (l *List) MatchURL(rawURL string) bool {
	_, ok := l.Match(rawURL)
	return ok
}

func hostMatches(host, domain string) bool {
	return host == domain || strings.HasSuffix(host, "."+domain)
}

// matchDomainPattern matches the post-anchor pattern against the path+query.
// A bare "^" (or empty) matches anything: the separator after the domain is
// the "/" (or end) which always qualifies.
func matchDomainPattern(pattern, rest string) bool {
	if pattern == "" || pattern == "^" || pattern == "^*" {
		return true
	}
	pattern = strings.TrimPrefix(pattern, "^")
	return wildcardMatch(pattern+"*", rest)
}

// wildcardMatch matches an ABP pattern against s. '*' matches any run,
// '^' matches a separator (non URL-token char) or the end of input.
func wildcardMatch(pattern, s string) bool {
	return wcMatch(pattern, s)
}

// wcMatch is the two-pointer wildcard match: every byte of p other than
// '*' consumes one byte of s ('^' a separator), and on a mismatch the scan
// resumes one byte further past the last '*'. That is O(len(p)·len(s));
// backtracking into every earlier '*' is exponential in their number, and
// list text is data. Once s is consumed, the rest of p must be '*' or '^'
// ('^' matches the end of input).
func wcMatch(p, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		if pi < len(p) {
			switch c := p[pi]; {
			case c == '*':
				star, mark = pi, si
				pi++
				continue
			case c == '^' && isSeparator(s[si]), c != '^' && c == s[si]:
				pi++
				si++
				continue
			}
		}
		if star < 0 {
			return false
		}
		pi = star + 1
		mark++
		si = mark
	}
	for pi < len(p) && (p[pi] == '*' || p[pi] == '^') {
		pi++
	}
	return pi == len(p)
}

func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	default:
		return true
	}
}
