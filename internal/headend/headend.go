// Package headend implements the channel-operator side of the synthetic
// HbbTV ecosystem: HTTP services for broadcaster application servers,
// third-party tracker endpoints (pixel beacons, analytics/fingerprint
// scripts, data collectors, cookie-syncing redirect chains), consent
// management backends, and privacy-policy hosts.
//
// In the real ecosystem these services are operated by broadcasters (e.g.
// ARD's redbutton.de) and trackers (e.g. the paper's dominant pixel host);
// here they are http.Handlers registered on a hostnet virtual Internet.
// The behaviours that the paper's analyses detect — sub-45-byte image
// responses, fingerprinting API markers in JavaScript, identifier cookies,
// redirect-based ID syncing — are properties of these handlers' real HTTP
// responses, not annotations.
package headend

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/countrand"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
)

// pixelGIF is a 35-byte 1x1 transparent GIF — under the paper's 45-byte
// tracking-pixel threshold.
var pixelGIF = []byte{
	'G', 'I', 'F', '8', '9', 'a', 1, 0, 1, 0, 0x80, 0, 0, 0, 0, 0,
	0xFF, 0xFF, 0xFF, 0x21, 0xF9, 4, 1, 0, 0, 0, 0, 0x2C, 0, 0, 0, 0,
	1, 0, 1,
}

// CookieKind selects what a tracker stores in its cookie.
type CookieKind int

// Cookie kinds.
const (
	// CookieID stores a 16-character identifier — matched by the paper's
	// ID heuristic (10-25 chars, not a timestamp).
	CookieID CookieKind = iota + 1
	// CookieTimestamp stores a Unix timestamp (consent time, zap time) —
	// the false-positive class the heuristic excludes.
	CookieTimestamp
	// CookieShort stores a short flag value below the ID length band.
	CookieShort
)

// Tracker configures one third-party (or first-party) tracking service.
type Tracker struct {
	// Domain is the service's registrable domain, e.g. "tvping.com".
	Domain string
	// CookieName, when non-empty, makes pixel/script responses set a
	// cookie of the given kind.
	CookieName string
	CookieKind CookieKind
	// Fingerprint makes the script endpoint serve fingerprinting code
	// (canvas/WebGL markers, Fingerprint2-style library).
	Fingerprint bool
	// SyncPartner, when non-empty, enables /sync: the response sets the
	// ID cookie and redirects to the partner with the ID in the URL —
	// the two-step cookie-syncing handshake.
	SyncPartner string
	// FatPixel serves an image above the 45-byte threshold, so the pixel
	// heuristic must NOT count this tracker (negative control).
	FatPixel bool
	// PixelRedirectTo, when non-empty, makes /px respond with a redirect
	// to the named domain's pixel instead of serving one — the "third
	// party included by another third party" pattern (the xiti case: most
	// frequent third party, yet pulled in by platform services rather than
	// by channels directly).
	PixelRedirectTo string
}

// TrackerService is a running tracker: a Tracker plus its handler state.
type TrackerService struct {
	cfg  Tracker
	clk  clock.Clock
	seed int64

	mu     sync.Mutex
	src    *countrand.Source
	rng    *rand.Rand
	nextID int64
}

// NewTrackerService builds the service. The seed keeps generated IDs
// deterministic per world.
func NewTrackerService(cfg Tracker, clk clock.Clock, seed int64) *TrackerService {
	src := countrand.New(seed)
	return &TrackerService{
		cfg:  cfg,
		clk:  clk,
		seed: seed,
		src:  src,
		rng:  rand.New(src),
	}
}

// Fresh returns a new service with t's configuration and construction
// seed on clk: the service as NewTrackerService built it, before it
// minted anything. A fresh copy shares no state with t.
func (t *TrackerService) Fresh(clk clock.Clock) *TrackerService {
	return NewTrackerService(t.cfg, clk, t.seed)
}

// Domain returns the service's registrable domain.
func (t *TrackerService) Domain() string { return t.cfg.Domain }

// State captures the service's mutable handler state — the rng draw
// count and the short-ID counter. Together with the construction seed
// these two numbers determine every future cookie value, so a checkpoint
// records them and a resume restores a freshly built service with
// Restore.
func (t *TrackerService) State() (draws uint64, nextID int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.src.Draws(), t.nextID
}

// Restore fast-forwards a freshly built service to a captured State. It
// fails when the service has already minted values past the target —
// handler state cannot be rewound.
func (t *TrackerService) Restore(draws uint64, nextID int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.src.FastForward(draws); err != nil {
		return fmt.Errorf("headend: tracker %s: %w", t.cfg.Domain, err)
	}
	if nextID < t.nextID {
		return fmt.Errorf("headend: tracker %s: cannot rewind short-ID counter from %d to %d", t.cfg.Domain, t.nextID, nextID)
	}
	t.nextID = nextID
	return nil
}

// Install registers the tracker's domain (and a www/cdn wildcard) on the
// virtual Internet.
func (t *TrackerService) Install(in *hostnet.Internet) {
	in.Handle(t.cfg.Domain, t)
	in.Handle("*."+t.cfg.Domain, t)
}

var _ http.Handler = (*TrackerService)(nil)

// ServeHTTP implements the tracker's endpoint set.
func (t *TrackerService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/px", "/t", "/i", "/match":
		t.servePixel(w, r)
	case "/js", "/fp.js", "/analytics.js":
		t.serveScript(w, r)
	case "/collect", "/fp":
		t.maybeSetCookie(w, r)
		w.WriteHeader(http.StatusNoContent)
	case "/sync":
		t.serveSync(w, r)
	default:
		if strings.HasSuffix(r.URL.Path, ".js") {
			t.serveScript(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%s tracking service", t.cfg.Domain)
	}
}

func (t *TrackerService) servePixel(w http.ResponseWriter, r *http.Request) {
	t.maybeSetCookie(w, r)
	if t.cfg.PixelRedirectTo != "" && r.URL.Path != "/match" {
		target := url.URL{Scheme: schemeOf(r), Host: t.cfg.PixelRedirectTo, Path: "/i"}
		if site := siteParam(r); site != "" {
			target.RawQuery = url.Values{"c": {site}}.Encode()
		}
		http.Redirect(w, r, target.String(), http.StatusFound)
		return
	}
	w.Header().Set("Content-Type", "image/gif")
	if t.cfg.FatPixel {
		// A "large" image: over the 45-byte pixel threshold.
		big := make([]byte, 2048)
		copy(big, pixelGIF)
		_, _ = w.Write(big)
		return
	}
	_, _ = w.Write(pixelGIF)
}

func (t *TrackerService) serveScript(w http.ResponseWriter, r *http.Request) {
	t.maybeSetCookie(w, r)
	w.Header().Set("Content-Type", "application/javascript")
	if t.cfg.Fingerprint {
		fmt.Fprintf(w, fingerprintScript, t.cfg.Domain)
		return
	}
	fmt.Fprintf(w, "/* %s analytics */\nfunction track(e){var i=new Image();i.src='//%s/t?e='+e;}\n",
		t.cfg.Domain, t.cfg.Domain)
}

// fingerprintScript carries the API markers the detection heuristic looks
// for: canvas toDataURL, WebGL, and a Fingerprint2-style library header.
const fingerprintScript = `/* Fingerprint2 build for %s */
(function(){
  var c=document.createElement('canvas');
  var ctx=c.getContext('2d');ctx.fillText('fp',2,2);
  var hash=c.toDataURL();
  var gl=c.getContext('webgl')||c.getContext('experimental-webgl');
  var renderer=gl&&gl.getParameter(gl.RENDERER);
  navigator.plugins;screen.colorDepth;new (window.AudioContext||function(){})();
  report({canvas:hash,webgl:renderer,ua:navigator.userAgent});
})();
`

func (t *TrackerService) serveSync(w http.ResponseWriter, r *http.Request) {
	if t.cfg.SyncPartner == "" {
		http.NotFound(w, r)
		return
	}
	id := t.cookieValueFor(w, r)
	target := url.URL{
		Scheme:   schemeOf(r),
		Host:     t.cfg.SyncPartner,
		Path:     "/match",
		RawQuery: url.Values{"puid": {id}, "src": {t.cfg.Domain}}.Encode(),
	}
	http.Redirect(w, r, target.String(), http.StatusFound)
}

// maybeSetCookie sets the tracker's cookie unless the client already
// presented one (real trackers only mint IDs once). Requests that carry a
// site/channel parameter get a site-scoped cookie in addition — the
// per-publisher segment cookies that make a cookie first-party on one
// channel and third-party on another, and that give the cookie-using
// third-party distribution its long tail.
func (t *TrackerService) maybeSetCookie(w http.ResponseWriter, r *http.Request) {
	if t.cfg.CookieName == "" {
		return
	}
	t.setCookieUnlessSent(w, r, "")
	if site := siteParam(r); site != "" {
		t.setCookieUnlessSent(w, r, site)
	}
}

// setCookieUnlessSent mints the tracker's cookie, or with a non-empty site
// its "<CookieName>_<site>" cookie, unless the request carries it. Only
// minting builds the scoped name.
func (t *TrackerService) setCookieUnlessSent(w http.ResponseWriter, r *http.Request, site string) {
	if _, ok := cookieValue(r.Header, t.cfg.CookieName, site); ok {
		return
	}
	name := t.cfg.CookieName
	if site != "" {
		name += "_" + site
	}
	http.SetCookie(w, &http.Cookie{
		Name:   name,
		Value:  t.newValue(),
		Path:   "/",
		MaxAge: 365 * 24 * 3600,
	})
}

// siteParam is the request's site/channel parameter: its first "c" value,
// or else its first "site" value.
func siteParam(r *http.Request) string {
	if c := queryValue(r.URL.RawQuery, "c"); c != "" {
		return c
	}
	return queryValue(r.URL.RawQuery, "site")
}

// cookieValueFor returns the client's existing cookie value or mints and
// sets a new one.
func (t *TrackerService) cookieValueFor(w http.ResponseWriter, r *http.Request) string {
	if t.cfg.CookieName != "" {
		if v, ok := cookieValue(r.Header, t.cfg.CookieName, ""); ok {
			return v
		}
	}
	v := t.newValue()
	if t.cfg.CookieName != "" {
		http.SetCookie(w, &http.Cookie{
			Name:   t.cfg.CookieName,
			Value:  v,
			Path:   "/",
			MaxAge: 365 * 24 * 3600,
		})
	}
	return v
}

func (t *TrackerService) newValue() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.cfg.CookieKind {
	case CookieTimestamp:
		return strconv.FormatInt(t.clk.Now().Unix(), 10)
	case CookieShort:
		t.nextID++
		return strconv.FormatInt(t.nextID%100, 10)
	default:
		return fmt.Sprintf("%08x%08x", t.rng.Uint32(), t.rng.Uint32())
	}
}

func schemeOf(r *http.Request) string {
	if r.URL != nil && r.URL.Scheme == "https" {
		return "https"
	}
	if r.TLS != nil {
		return "https"
	}
	return "http"
}
