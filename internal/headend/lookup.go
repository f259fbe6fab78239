package headend

import (
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
)

// The tracker handlers need one query parameter or one cookie per request.
// These scanners find it in the raw query or the Cookie lines directly,
// with the standard library's parsing rules, instead of building the
// url.Values map or every *http.Cookie first. FuzzTrackerLookups holds
// them to those rules.

// queryValue returns the first value of key in a raw query — what
// url.ParseQuery(raw)[key][0] holds, or "". Like ParseQuery it skips empty
// pairs, pairs holding a ';', and pairs whose key or value does not
// unescape.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// cookieValue returns the value of the first cookie called name in a
// request's Cookie lines, as (*http.Request).Cookie(name) finds it: pairs
// split at ';', pairs and names trimmed of ASCII space, one pair of
// surrounding double quotes stripped from the value, and a pair skipped
// when its value holds a byte outside the cookie-octet set. A name that is
// not a token never matches. A non-empty site looks for the cookie called
// name+"_"+site instead, without building that name.
func cookieValue(h http.Header, name, site string) (string, bool) {
	if !isToken(name) || (site != "" && !isToken(site)) {
		return "", false
	}
	for _, line := range h["Cookie"] {
		for line != "" {
			var part string
			part, line, _ = strings.Cut(line, ";")
			n, v, _ := strings.Cut(textproto.TrimString(part), "=")
			if !cookieNamed(textproto.TrimString(n), name, site) {
				continue
			}
			if len(v) > 1 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
			}
			if validCookieValue(v) {
				return v, true
			}
		}
	}
	return "", false
}

// cookieNamed reports whether n is name, or with a non-empty site
// name+"_"+site.
func cookieNamed(n, name, site string) bool {
	if site == "" {
		return n == name
	}
	rest, ok := strings.CutPrefix(n, name)
	return ok && len(rest) == len(site)+1 && rest[0] == '_' && rest[1:] == site
}

// isToken reports whether s is a non-empty RFC 7230 token, the syntax of a
// cookie name.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0:
		default:
			return false
		}
	}
	return true
}

// validCookieValue reports whether every byte of v is a cookie octet as
// net/http reads one.
func validCookieValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < 0x20 || b >= 0x7f || b == '"' || b == ';' || b == '\\' {
			return false
		}
	}
	return true
}
