package webos

import (
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
)

// StoredCookie is one cookie in the TV's cookie jar, with the metadata the
// study extracted via SSH from the TV's Chromium profile.
type StoredCookie struct {
	Name     string
	Value    string
	Domain   string // registered domain attribute, without leading dot
	Path     string
	Expires  time.Time // zero = session cookie
	Created  time.Time
	HostOnly bool   // no Domain attribute: only the exact host matches
	SetBy    string // host of the response (or document) that set it
}

// Expired reports whether the cookie is expired at now.
func (c *StoredCookie) Expired(now time.Time) bool {
	return !c.Expires.IsZero() && !now.Before(c.Expires)
}

// Jar is an RFC 6265-style cookie jar driven by an explicit clock so that
// expiry works on the virtual timeline. It implements http.CookieJar.
//
// Cookies are bucketed by their Domain attribute: a request for host
// "a.b.example.de" only inspects the buckets of the host itself and its
// parent suffixes, so matching cost scales with the handful of cookies a
// host can see rather than with the whole jar — the property that keeps
// the measurement hot path flat as the jar grows over a run.
type Jar struct {
	clk clock.Clock

	mu      sync.Mutex
	byDom   map[string][]*StoredCookie // keyed by StoredCookie.Domain
	count   int
	scratch []*StoredCookie // reusable match buffer
	hdrBuf  []byte          // reusable CookieHeader buffer
}

var _ http.CookieJar = (*Jar)(nil)

// NewJar returns an empty jar on the given clock.
func NewJar(clk clock.Clock) *Jar {
	return &Jar{clk: clk, byDom: make(map[string][]*StoredCookie)}
}

// removeLocked deletes the (domain, path, name) cookie if present.
func (j *Jar) removeLocked(domain, path, name string) {
	bucket := j.byDom[domain]
	for i, sc := range bucket {
		if sc.Path == path && sc.Name == name {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			j.count--
			if len(bucket) == 0 {
				delete(j.byDom, domain)
			} else {
				j.byDom[domain] = bucket
			}
			return
		}
	}
}

// SetCookies implements http.CookieJar.
func (j *Jar) SetCookies(u *url.URL, cookies []*http.Cookie) {
	host := strings.ToLower(u.Hostname())
	if host == "" {
		return
	}
	now := j.clk.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range cookies {
		if c.Name == "" {
			continue
		}
		sc := &StoredCookie{
			Name:    c.Name,
			Value:   c.Value,
			Path:    c.Path,
			Created: now,
			SetBy:   host,
		}
		if sc.Path == "" || sc.Path[0] != '/' {
			// RFC 6265 §5.2.4: a path attribute that does not start
			// with "/" is ignored in favour of the default path.
			sc.Path = defaultPath(u.Path)
		}
		domain := strings.TrimPrefix(strings.ToLower(c.Domain), ".")
		switch {
		case domain == "":
			sc.Domain = host
			sc.HostOnly = true
		case domainMatch(host, domain):
			sc.Domain = domain
		default:
			continue // a host may not set cookies for unrelated domains
		}
		switch {
		case c.MaxAge > 0:
			sc.Expires = now.Add(time.Duration(c.MaxAge) * time.Second)
		case c.MaxAge < 0:
			// Immediate deletion.
			j.removeLocked(sc.Domain, sc.Path, sc.Name)
			continue
		case !c.Expires.IsZero():
			sc.Expires = c.Expires
		}
		if sc.Expired(now) {
			j.removeLocked(sc.Domain, sc.Path, sc.Name)
			continue
		}
		bucket := j.byDom[sc.Domain]
		replaced := false
		for i, old := range bucket {
			if old.Path == sc.Path && old.Name == sc.Name {
				sc.Created = old.Created // updates keep creation time
				bucket[i] = sc
				replaced = true
				break
			}
		}
		if !replaced {
			j.byDom[sc.Domain] = append(bucket, sc)
			j.count++
		}
	}
}

// Cookies implements http.CookieJar.
func (j *Jar) Cookies(u *url.URL) []*http.Cookie {
	now := j.clk.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	matched := j.matchLocked(u, now)
	if len(matched) == 0 {
		return nil
	}
	out := make([]*http.Cookie, len(matched))
	cs := make([]http.Cookie, len(matched))
	for i, sc := range matched {
		cs[i] = http.Cookie{Name: sc.Name, Value: sc.Value}
		out[i] = &cs[i]
	}
	return out
}

// CookieHeader returns the Cookie header a request for u carries: the
// cookies Cookies returns, in its order, each written the way
// (*http.Request).AddCookie writes one and joined by "; ". It is what
// adding Cookies(u) one by one to a request leaves in its Cookie header,
// built in one pass; "" means the request carries no Cookie header.
func (j *Jar) CookieHeader(u *url.URL) string {
	now := j.clk.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	matched := j.matchLocked(u, now)
	if len(matched) == 0 {
		return ""
	}
	buf := j.hdrBuf[:0]
	for i, sc := range matched {
		if i > 0 {
			buf = append(buf, "; "...)
		}
		buf = appendCookie(buf, sc.Name, sc.Value)
	}
	j.hdrBuf = buf
	return string(buf)
}

// matchLocked returns the unexpired cookies a request for u carries, in
// RFC 6265 §5.4 order, in the jar's scratch buffer: the slice is valid
// until the caller releases j.mu.
func (j *Jar) matchLocked(u *url.URL, now time.Time) []*StoredCookie {
	if len(j.byDom) == 0 {
		return nil
	}
	host := strings.ToLower(u.Hostname())
	path := u.Path
	if path == "" {
		path = "/"
	}
	// Walk the host's domain-suffix chain: the host's own bucket may hold
	// host-only and domain cookies; parent buckets hold domain cookies only.
	matched := j.scratch[:0]
	dom := host
	exact := true
	for {
		for _, sc := range j.byDom[dom] {
			if sc.Expired(now) {
				continue
			}
			if sc.HostOnly && !exact {
				continue
			}
			if !pathMatch(path, sc.Path) {
				continue
			}
			matched = append(matched, sc)
		}
		i := strings.IndexByte(dom, '.')
		if i < 0 {
			break
		}
		dom = dom[i+1:]
		exact = false
	}
	j.scratch = matched[:0]
	slices.SortFunc(matched, cookieOrder)
	return matched
}

// cookieOrder is RFC 6265 §5.4's order: longer paths first, then earlier
// creation times. On the virtual clock many cookies share one creation
// instant, so remaining ties break by (domain, path, name), which is unique
// in the jar — without this the header order would inherit the map's
// random iteration order, which breaks the byte-level reproducibility the
// parallel engine's digests verify.
func cookieOrder(a, b *StoredCookie) int {
	if len(a.Path) != len(b.Path) {
		return len(b.Path) - len(a.Path)
	}
	if c := a.Created.Compare(b.Created); c != 0 {
		return c
	}
	if c := strings.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	if c := strings.Compare(a.Path, b.Path); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// appendCookie appends name=value to dst as (*http.Request).AddCookie
// renders a cookie: CR and LF in the name become '-', the value loses the
// bytes net/http rejects (controls, DEL, non-ASCII, '"', ';' and '\'),
// and a value holding a space or a comma is double-quoted.
func appendCookie(dst []byte, name, value string) []byte {
	for i := 0; i < len(name); i++ {
		b := name[i]
		if b == '\r' || b == '\n' {
			b = '-'
		}
		dst = append(dst, b)
	}
	dst = append(dst, '=')
	quote := false
	for i := 0; i < len(value); i++ {
		if b := value[i]; b == ' ' || b == ',' {
			quote = true
			break
		}
	}
	if quote {
		dst = append(dst, '"')
	}
	for i := 0; i < len(value); i++ {
		if b := value[i]; validCookieValueByte(b) {
			dst = append(dst, b)
		}
	}
	if quote {
		dst = append(dst, '"')
	}
	return dst
}

// validCookieValueByte reports whether net/http keeps b in a cookie value.
func validCookieValueByte(b byte) bool {
	return 0x20 <= b && b < 0x7f && b != '"' && b != ';' && b != '\\'
}

// All returns a snapshot of every unexpired cookie, sorted by domain, path,
// then name — the jar dump the measurement run uploads.
func (j *Jar) All() []StoredCookie {
	now := j.clk.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]StoredCookie, 0, j.count)
	for _, bucket := range j.byDom {
		for _, sc := range bucket {
			if !sc.Expired(now) {
				out = append(out, *sc)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Domain != out[b].Domain {
			return out[a].Domain < out[b].Domain
		}
		if out[a].Path != out[b].Path {
			return out[a].Path < out[b].Path
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Clear wipes the jar (between measurement runs).
func (j *Jar) Clear() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.byDom = make(map[string][]*StoredCookie)
	j.count = 0
}

// Len returns the number of stored (possibly expired) cookies.
func (j *Jar) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// domainMatch implements RFC 6265 §5.1.3: host equals domain or is a
// subdomain of it.
func domainMatch(host, domain string) bool {
	if host == domain {
		return true
	}
	return strings.HasSuffix(host, "."+domain)
}

// pathMatch implements RFC 6265 §5.1.4.
func pathMatch(reqPath, cookiePath string) bool {
	if reqPath == cookiePath {
		return true
	}
	if strings.HasPrefix(reqPath, cookiePath) {
		if strings.HasSuffix(cookiePath, "/") {
			return true
		}
		return len(reqPath) > len(cookiePath) && reqPath[len(cookiePath)] == '/'
	}
	return false
}

// defaultPath implements RFC 6265 §5.1.4 default-path computation.
func defaultPath(reqPath string) string {
	if reqPath == "" || reqPath[0] != '/' {
		return "/"
	}
	i := strings.LastIndexByte(reqPath, '/')
	if i <= 0 {
		return "/"
	}
	return reqPath[:i]
}
