// Package proxy is the study's mitmproxy substitute: an intercepting,
// recording HTTP(S) proxy. It offers two modes that produce identical Flow
// records: an http.RoundTripper interceptor for in-process measurement runs
// and a real CONNECT-capable proxy server for loopback integration tests.
//
// Channel attribution follows the paper's procedure: the remote-control
// script announces every channel switch to the proxy; requests are mapped
// to the announced channel, corrected by the HTTP Referer header to account
// for delays during switching, and only requests within the attribution
// window of channel watch time are considered.
package proxy

import (
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Flow is one recorded HTTP(S) request/response pair — the unit every
// analysis consumes, shaped like a mitmproxy flow after TLS interception.
type Flow struct {
	ID   int64
	Time time.Time

	Method string
	URL    *url.URL
	HTTPS  bool

	RequestHeaders http.Header
	RequestBody    []byte

	StatusCode      int
	ResponseHeaders http.Header
	ResponseSize    int64
	// ResponseBody retains the body of textual responses (HTML, scripts,
	// JSON) up to a cap, enabling content analyses such as fingerprint
	// script detection and privacy-policy extraction. Binary bodies are
	// not retained; ResponseSize always reflects the full size.
	ResponseBody []byte

	// Channel and ChannelID carry the attribution result; empty when the
	// request could not be attributed (e.g. outside the window).
	Channel   string
	ChannelID string

	// host caches the interned host name; set by the recorder so Host is
	// O(1) on recorded flows and every flow shares one copy per distinct
	// host string.
	host string
}

// Host returns the request host without port.
func (f *Flow) Host() string {
	if f.host != "" {
		return f.host
	}
	if f.URL == nil {
		return ""
	}
	return f.URL.Hostname()
}

// CacheHost caches h as the flow's precomputed host name. The recorder and
// the store's loaders use it; h must equal URL.Hostname().
func (f *Flow) CacheHost(h string) { f.host = h }

// ContentType returns the response media type without parameters, in
// lower case: type and subtype are case-insensitive (RFC 9110 §8.3.1).
func (f *Flow) ContentType() string {
	// Indexing the map with the canonical key is Header.Get without the
	// key canonicalization.
	var ct string
	if v := f.ResponseHeaders["Content-Type"]; len(v) > 0 {
		ct = v[0]
	}
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	return strings.ToLower(trimSpaces(ct))
}

func trimSpaces(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// SetCookies returns the parsed Set-Cookie headers of the response.
func (f *Flow) SetCookies() []*http.Cookie {
	resp := http.Response{Header: f.ResponseHeaders}
	return resp.Cookies()
}

// Referer returns the request Referer header, if any.
func (f *Flow) Referer() string { return f.RequestHeaders.Get("Referer") }
