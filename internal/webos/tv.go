// Package webos simulates the study's measurement device: an LG webOS TV
// with an HbbTV 2.0 runtime. The TV tunes dvb services, decodes their AIT,
// loads the announced HbbTV application over HTTP through the intercepting
// proxy, executes the app's behaviour manifest (cookies, localStorage,
// beacon loops, fingerprint collection, key maps, overlays), and exposes
// the Developer-API surface the remote-control script used: screenshots,
// channel metadata, input injection, and — thanks to "rooting" — direct
// access to the cookie jar and localStorage.
package webos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/countrand"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// DeviceInfo is the technical identity of the TV — the values the paper
// searched for in outgoing traffic (manufacturer, model, OS, language).
type DeviceInfo struct {
	Manufacturer string
	Model        string
	OS           string
	Language     string
}

// LGDevice is the study's device: an LG 43UK6300LLB on webOS 05.40.26.
var LGDevice = DeviceInfo{
	Manufacturer: "LGE",
	Model:        "43UK6300LLB",
	OS:           "WEBOS4.0 05.40.26 W4_LM18A",
	Language:     "German",
}

// Config configures a TV.
type Config struct {
	Clock     clock.Clock
	Transport http.RoundTripper // the proxy recorder
	// OnSwitch is invoked on every channel switch (the remote-control
	// script forwarded switches to the proxy for attribution).
	OnSwitch func(name, id string)
	// Seed drives session/user identifier generation.
	Seed int64
	// Telemetry, when non-nil, counts tunes, key presses, screenshots,
	// and app loads on the shard's telemetry slot.
	Telemetry *telemetry.Shard
	// Faults, when non-nil, injects deterministic broadcast-level faults:
	// tune failures (no signal lock) and AIT corruption. Decisions are
	// keyed on the service name and the visit attempt from FaultAttempt.
	Faults *faults.Injector
	// FaultAttempt reports the current visit attempt for fault scoping
	// (nil = attempt 0).
	FaultAttempt func() int
	// OnFault is invoked for every injected broadcast fault.
	OnFault func(kind faults.Kind, channel string)
}

// tvMetrics are the TV's pre-resolved telemetry handles (nil-safe no-ops
// when telemetry is disabled).
type tvMetrics struct {
	tunes       *telemetry.BoundCounter
	keyPresses  *telemetry.BoundCounter
	screenshots *telemetry.BoundCounter
	appsLoaded  *telemetry.BoundCounter
	beacons     *telemetry.BoundCounter
}

// LogKind classifies TV log entries.
type LogKind string

// Log entry kinds.
const (
	LogSwitch LogKind = "channel_switch"
	LogKey    LogKind = "key_press"
	LogApp    LogKind = "app_event"
	LogError  LogKind = "error"
)

// LogEntry is one interaction/metadata log record.
type LogEntry struct {
	Time   time.Time
	Kind   LogKind
	Detail string
}

// Screenshot captures what is on screen — the ground truth the annotation
// codebook is applied to.
type Screenshot struct {
	Time      time.Time
	Channel   string
	ChannelID string
	HasSignal bool
	// Overlay is nil when only the TV program is visible.
	Overlay *appmodel.OverlaySpec
	Show    string
}

// TV is the simulated measurement device.
type TV struct {
	cfg Config
	clk clock.Clock

	jar     *Jar
	storage *LocalStorage

	powered bool

	current *dvb.Service
	// currentEvent is the airing program decoded from the service's EIT.
	currentEvent *dvb.Event
	app          *runningApp

	userID    string
	sessionID string
	src       *countrand.Source
	rng       *rand.Rand

	// Hot-path caches. The device identity is fixed at construction, the
	// channel ID at tune time, and the formatted local time changes at most
	// once per virtual second — none of them need rebuilding per request.
	userAgent  string
	currentID  string
	ltCacheSec int64
	ltCache    string

	metrics tvMetrics
	logs    []LogEntry

	eventScratch []beaconEvent

	// req and hdr are the one request, and its header map, the TV sends:
	// send rebuilds both for every hop. hdrVals backs the header's
	// single-value slices, uaValue is the constant User-Agent line and
	// reqURL the URL a beacon is built in. The recorder copies what it
	// keeps, so none of them outlives the request.
	req     http.Request
	hdr     http.Header
	hdrVals [3]string
	uaValue []string
	reqURL  url.URL
}

// runningApp is the state of the loaded HbbTV application.
type runningApp struct {
	doc     *appmodel.Document
	baseURL *url.URL
	baseStr string // baseURL.String(), the Referer of every app request
	started time.Time
	// watchElapsed accumulates total watch time so that beacon schedules
	// survive across successive short Watch calls (screenshot cadence).
	watchElapsed time.Duration
	overlay      *appmodel.OverlaySpec
	// notice is the consent notice shown on top of overlay until decided.
	notice *appmodel.OverlaySpec
	// consentLayer / consentFocus track consent-notice interaction state.
	consentLayer int
	consentFocus int
	beacons      []appmodel.BeaconSpec
	// bstates holds per-beacon precomputed request state, same indexing as
	// beacons. Prepared once at load; fireBeacon only expands values.
	bstates []beaconState
	vars    appmodel.Vars
}

// beaconState is the per-beacon work hoisted out of fireBeacon: the base URL
// resolved against the document once, and the query parameters escaped and
// sorted the way url.Values.Encode emits the resolved URL's own query with
// every template value added to it. A URL that does not parse keeps its
// parse error instead, and every fire logs it.
//
// A beacon also keeps the query it last rendered together with the
// variables it rendered it from, and reuses it while they are unchanged.
// Those are every variable, except that the clock's two stay zero when no
// template reads them (readsClock false): they are the only ones that move
// under a running app, while a PowerOn can still mint a new session
// under it.
type beaconState struct {
	base       url.URL // RawQuery empty; copied per fire
	forceQuery bool    // the resolved URL ends in a bare "?"
	params     []beaconParam
	raw        string // the resolved URL, logged with err
	err        error  // why raw does not parse
	readsClock bool   // a template reads {localtime} or {unixtime}
	rendered   bool   // query holds the rendering of vars
	vars       appmodel.Vars
	query      string
}

// beaconParam is one query parameter with its key pre-escaped: a template
// expanded per fire, or a value of the resolved URL's own query, escaped
// once.
type beaconParam struct {
	key      string // raw key, used for Encode-compatible sort order
	escKey   string
	template string
	literal  bool   // escValue, not template, is the value
	escValue string // the escaped literal value
}

// beaconEvent is one scheduled beacon firing inside a Watch slice.
type beaconEvent struct {
	at     time.Duration
	beacon int
}

// New constructs a powered-off TV.
func New(cfg Config) *TV {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	src := countrand.New(cfg.Seed)
	tv := &TV{
		cfg:     cfg,
		clk:     cfg.Clock,
		jar:     NewJar(cfg.Clock),
		storage: NewLocalStorage(),
		src:     src,
		rng:     rand.New(src),
	}
	tv.userID = tv.newID("u")
	tv.userAgent = fmt.Sprintf(
		"Mozilla/5.0 (Web0S; Linux/SmartTV) AppleWebKit/537.36 HbbTV/1.5.1 (+DRM; %s; %s; %s;)",
		LGDevice.Manufacturer, LGDevice.Model, LGDevice.OS)
	tv.hdr = make(http.Header, 4)
	tv.uaValue = []string{tv.userAgent}
	tv.metrics = tvMetrics{
		tunes:       cfg.Telemetry.Counter("webos_tunes"),
		keyPresses:  cfg.Telemetry.Counter("webos_key_presses"),
		screenshots: cfg.Telemetry.Counter("webos_screenshots"),
		appsLoaded:  cfg.Telemetry.Counter("webos_apps_loaded"),
		beacons:     cfg.Telemetry.Counter("webos_beacons_fired"),
	}
	return tv
}

func (tv *TV) newID(prefix string) string {
	return fmt.Sprintf("%s%08x%08x", prefix, tv.rng.Uint32(), tv.rng.Uint32())
}

// PowerOn boots the TV and connects it to the network. A new viewing
// session identifier is generated, as the TV's browser would.
func (tv *TV) PowerOn() {
	tv.powered = true
	tv.sessionID = tv.newID("s")
	tv.logf(LogApp, "power on (session %s)", tv.sessionID)
}

// PowerOff turns the TV off, exiting any running application.
func (tv *TV) PowerOff() {
	tv.exitApp()
	tv.current = nil
	tv.powered = false
	tv.logf(LogApp, "power off")
}

// Rooted access — what RootMyTV 2.0 + SSH provided.

// CookieJar returns the TV's cookie jar for direct inspection.
func (tv *TV) CookieJar() *Jar { return tv.jar }

// Storage returns the TV's localStorage for direct inspection.
func (tv *TV) Storage() *LocalStorage { return tv.storage }

// WipeBrowserState clears cookies and localStorage (between runs).
func (tv *TV) WipeBrowserState() {
	tv.jar.Clear()
	tv.storage.Clear()
}

// UserID returns the TV-persistent identifier apps embed in tracking
// requests.
func (tv *TV) UserID() string { return tv.userID }

// SessionID returns the per-power-on session identifier.
func (tv *TV) SessionID() string { return tv.sessionID }

// Logs returns a copy of all log entries.
func (tv *TV) Logs() []LogEntry {
	out := make([]LogEntry, len(tv.logs))
	copy(out, tv.logs)
	return out
}

// RNGDraws returns how many values the TV's identifier rng has drawn —
// the TV half of a checkpoint cell's state (the other half is the log
// history, which WipeBrowserState deliberately does not clear).
func (tv *TV) RNGDraws() uint64 { return tv.src.Draws() }

// RestoreSession fast-forwards a freshly built TV to a checkpointed
// state: the identifier rng to the given draw count (so the next PowerOn
// mints the session ID the uninterrupted run would have) and the log
// stream to the accumulated history. It fails when the TV has already
// drawn past the target.
func (tv *TV) RestoreSession(draws uint64, logs []LogEntry) error {
	if err := tv.src.FastForward(draws); err != nil {
		return fmt.Errorf("webos: restore session: %w", err)
	}
	tv.logs = make([]LogEntry, len(logs))
	copy(tv.logs, logs)
	return nil
}

// Log appends an external log entry to the TV's log stream. The
// measurement framework uses it to record events the TV itself cannot see,
// such as a recovered panic in a channel's application.
func (tv *TV) Log(kind LogKind, detail string) {
	tv.logs = append(tv.logs, LogEntry{Time: tv.clk.Now(), Kind: kind, Detail: detail})
}

func (tv *TV) logf(kind LogKind, format string, args ...any) {
	tv.logs = append(tv.logs, LogEntry{
		Time:   tv.clk.Now(),
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// TuneTo switches the TV to the given service: the running HbbTV app (if
// any) exits, the switch is announced (for traffic attribution), and the
// service's autostart application is loaded when the signal carries an
// AIT.
func (tv *TV) TuneTo(svc *dvb.Service) error {
	if !tv.powered {
		return fmt.Errorf("webos: TV is powered off")
	}
	tv.metrics.tunes.Inc()
	tuneSpan := tv.cfg.Telemetry.StartSpan(telemetry.SpanTune, svc.Name)
	defer tuneSpan.End()
	tv.exitApp()
	if f := tv.cfg.Faults.Tune(svc.Name, tv.faultAttempt()); f.Kind == faults.KindTuneFail {
		if tv.cfg.OnFault != nil {
			tv.cfg.OnFault(f.Kind, svc.Name)
		}
		tv.current = nil
		tv.currentEvent = nil
		tv.logf(LogError, "tune to %s: no signal lock", svc.Name)
		return fmt.Errorf("webos: tune to %s: %w", svc.Name, faults.ErrTuneFail)
	}
	tv.current = svc
	tv.currentEvent = nil
	if len(svc.EITSection) > 0 {
		if eit, err := dvb.DecodeEIT(svc.EITSection); err == nil {
			tv.currentEvent = eit.Present()
		} else {
			tv.logf(LogError, "EIT decode for %s: %v", svc.Name, err)
		}
	}
	id := fmt.Sprintf("sid-%d", svc.ServiceID)
	tv.currentID = id
	tv.logf(LogSwitch, "switch to %s (%s)", svc.Name, id)
	if tv.cfg.OnSwitch != nil {
		tv.cfg.OnSwitch(svc.Name, id)
	}
	if !svc.HasAIT() || svc.Encrypted || svc.Invisible {
		return nil
	}
	section := svc.AITSection
	aitSpan := tv.cfg.Telemetry.StartSpan(telemetry.SpanAIT, svc.Name)
	if f := tv.cfg.Faults.AIT(svc.Name, tv.faultAttempt()); f.Kind == faults.KindAITCorrupt {
		if tv.cfg.OnFault != nil {
			tv.cfg.OnFault(f.Kind, svc.Name)
		}
		// Corrupt a copy; the broadcast stream itself stays intact for the
		// next attempt's fresh decision.
		section = tv.cfg.Faults.Corrupt(section, svc.Name, tv.faultAttempt())
	}
	ait, err := dvb.DecodeAIT(section)
	aitSpan.End()
	if err != nil {
		tv.logf(LogError, "AIT decode for %s: %v", svc.Name, err)
		return fmt.Errorf("webos: decode AIT: %w", err)
	}
	auto := ait.Autostart()
	if auto == nil {
		return nil
	}
	if err := tv.loadApp(auto.EntryURL()); err != nil {
		tv.logf(LogError, "app load for %s: %v", svc.Name, err)
		return fmt.Errorf("webos: load app: %w", err)
	}
	return nil
}

// faultAttempt resolves the current visit attempt for fault scoping.
func (tv *TV) faultAttempt() int {
	if tv.cfg.FaultAttempt != nil {
		return tv.cfg.FaultAttempt()
	}
	return 0
}

// Current returns the currently tuned service, or nil.
func (tv *TV) Current() *dvb.Service { return tv.current }

// HasApp reports whether an HbbTV application is currently running.
func (tv *TV) HasApp() bool { return tv.app != nil }

func (tv *TV) exitApp() {
	if tv.app != nil {
		tv.logf(LogApp, "exit app %s", tv.app.baseURL)
	}
	tv.app = nil
}

// appVars builds the template variables for the current app context. The
// clock's two, {localtime} and {unixtime}, are filled only withClock and
// stay zero otherwise.
func (tv *TV) appVars(withClock bool) appmodel.Vars {
	v := appmodel.Vars{
		SessionID:    tv.sessionID,
		UserID:       tv.userID,
		Manufacturer: LGDevice.Manufacturer,
		Model:        LGDevice.Model,
		OS:           LGDevice.OS,
		Language:     LGDevice.Language,
	}
	if withClock {
		now := tv.clk.Now()
		sec := now.Unix()
		if sec != tv.ltCacheSec || tv.ltCache == "" {
			// The format has second granularity, so the string is a pure
			// function of the unix second — beacons firing within the same
			// virtual second reuse it.
			tv.ltCacheSec = sec
			tv.ltCache = now.Format("2006-01-02T15:04:05")
		}
		v.LocalTime, v.UnixTime = tv.ltCache, sec
	}
	if tv.current != nil {
		v.Channel = tv.current.Name
		v.ChannelID = tv.currentID
		// The aired program comes from the broadcast EIT when present,
		// falling back to the channel-list metadata.
		if tv.currentEvent != nil {
			v.Show = tv.currentEvent.Title
			v.Genre = tv.currentEvent.Genre
		} else {
			v.Show = tv.current.CurrentShow
			v.Genre = tv.current.CurrentGenre
		}
	}
	return v
}

// loadApp fetches and interprets an HbbTV application document.
func (tv *TV) loadApp(entry string) error {
	appSpan := tv.cfg.Telemetry.StartSpan(telemetry.SpanApp, entry)
	defer appSpan.End()
	base, err := url.Parse(entry)
	if err != nil {
		return fmt.Errorf("parse entry URL: %w", err)
	}
	body, err := tv.getBody(entry)
	if err != nil {
		return err
	}
	doc, err := appmodel.ParseHTML(body)
	if err != nil {
		return err
	}
	app := &runningApp{doc: doc, baseURL: base, baseStr: base.String(), started: tv.clk.Now()}
	tv.app = app
	tv.metrics.appsLoaded.Inc()
	app.vars = tv.appVars(true)

	// Load markup subresources in document order with the document as
	// Referer; XHR resources fire after the manifest is applied.
	for _, res := range doc.Resources {
		if res.Kind == appmodel.ResXHR {
			continue
		}
		u := resolveRef(base, res.URL)
		if err := tv.get(u, base.String()); err != nil {
			tv.logf(LogError, "subresource %s: %v", u, err)
		}
	}

	if doc.App == nil {
		return nil
	}
	spec := doc.App

	// Script-set cookies on the app origin.
	for _, c := range spec.Cookies {
		tv.jar.SetCookies(base, []*http.Cookie{{
			Name:   c.Name,
			Value:  app.vars.Expand(c.Value),
			Path:   c.Path,
			MaxAge: c.MaxAge,
		}})
	}
	// localStorage writes.
	origin := base.Scheme + "://" + base.Host
	for _, s := range spec.Storage {
		tv.storage.Set(origin, s.Key, app.vars.Expand(s.Value))
	}
	// XHR resources fire immediately.
	for _, res := range doc.Resources {
		if res.Kind == appmodel.ResXHR {
			u := resolveRef(base, res.URL)
			if err := tv.get(u, base.String()); err != nil {
				tv.logf(LogError, "xhr %s: %v", u, err)
			}
		}
	}
	// Fingerprinting: fetch the script, then report collected properties.
	if fp := spec.Fingerprint; fp != nil {
		if err := tv.get(resolveRef(base, fp.ScriptURL), base.String()); err == nil {
			report := map[string]any{
				"apis":         fp.APIs,
				"manufacturer": LGDevice.Manufacturer,
				"model":        LGDevice.Model,
				"os":           LGDevice.OS,
				"language":     LGDevice.Language,
				"localTime":    app.vars.LocalTime,
				"canvas":       tv.pseudoFingerprint("canvas"),
				"webgl":        tv.pseudoFingerprint("webgl"),
			}
			payload, _ := json.Marshal(report)
			tv.post(resolveRef(base, fp.ReportURL), base.String(), "application/json", payload)
		}
	}
	// Explicit data-leak reports.
	for _, target := range spec.LeakTechnical {
		u := addQuery(resolveRef(base, target), url.Values{
			"manufacturer": {LGDevice.Manufacturer},
			"model":        {LGDevice.Model},
			"os":           {LGDevice.OS},
			"language":     {LGDevice.Language},
			"localtime":    {app.vars.LocalTime},
		})
		if err := tv.get(u, base.String()); err != nil {
			tv.logf(LogError, "leak technical %s: %v", u, err)
		}
	}
	for _, target := range spec.LeakBehavioral {
		u := addQuery(resolveRef(base, target), url.Values{
			"channel": {app.vars.Channel},
			"show":    {app.vars.Show},
			"genre":   {app.vars.Genre},
			"uid":     {tv.userID},
		})
		if err := tv.get(u, base.String()); err != nil {
			tv.logf(LogError, "leak behavioral %s: %v", u, err)
		}
	}
	// Beacons are executed by Watch; resolve their URLs and escape their
	// parameter keys once here so each firing only expands the values.
	app.beacons = spec.Beacons
	app.bstates = make([]beaconState, len(spec.Beacons))
	for i, b := range spec.Beacons {
		app.bstates[i] = prepareBeacon(base, b)
	}
	if spec.Overlay != nil {
		ov := *spec.Overlay
		app.overlay = &ov
		if ov.Consent != nil && len(ov.Consent.Layers) > 0 {
			app.consentFocus = ov.Consent.Layers[0].DefaultFocus
		}
	}
	if spec.Notice != nil {
		nv := *spec.Notice
		app.notice = &nv
		if nv.Consent != nil && len(nv.Consent.Layers) > 0 {
			app.consentFocus = nv.Consent.Layers[0].DefaultFocus
		}
	}
	return nil
}

// Watch lets the TV sit on the current channel for d, firing all beacon
// traffic the app schedules. Time advances on the TV's clock. Beacon
// phases persist across calls, so a 120-second beacon still fires when the
// caller watches in shorter screenshot-cadence slices.
func (tv *TV) Watch(d time.Duration) {
	app := tv.app
	if app == nil || len(app.beacons) == 0 {
		tv.clk.Sleep(d)
		return
	}
	start := app.watchElapsed
	end := start + d
	app.watchElapsed = end

	events := tv.eventScratch[:0]
	for bi, b := range app.beacons {
		iv := time.Duration(b.IntervalSeconds) * time.Second
		if iv <= 0 {
			iv = time.Second
		}
		// Fire times are the multiples of iv in (start, end].
		for at := (start/iv + 1) * iv; at <= end; at += iv {
			events = append(events, beaconEvent{at: at, beacon: bi})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].at < events[b].at })
	tv.eventScratch = events[:0]
	cur := start
	for _, ev := range events {
		if ev.at > cur {
			tv.clk.Sleep(ev.at - cur)
			cur = ev.at
		}
		n := app.beacons[ev.beacon].Burst
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			tv.fireBeacon(ev.beacon)
		}
	}
	if end > cur {
		tv.clk.Sleep(end - cur)
	}
}

// prepareBeacon hoists the per-fire URL work out of fireBeacon. A beacon
// sends the resolved URL with the template values added to its query by
// url.Values.Add, as get would send its string form: so the URL's own
// query pairs become literal parameters, ahead of the template of the same
// key, and the rest of the URL is what get's parse gives back, because an
// encoded query holds no byte that could move a boundary.
func prepareBeacon(base *url.URL, b appmodel.BeaconSpec) beaconState {
	st := beaconState{raw: resolveRef(base, b.URL)}
	u, err := url.Parse(st.raw)
	if err != nil {
		st.err = err
		return st
	}
	own := u.Query()
	st.forceQuery = u.ForceQuery
	u.RawQuery, u.ForceQuery = "", false
	u.Host = strings.TrimSuffix(u.Host, ":") // as parseRequestURL does
	st.base = *u
	st.params = make([]beaconParam, 0, len(own)+len(b.Params))
	for k, vs := range own {
		for _, v := range vs {
			st.params = append(st.params, beaconParam{key: k, escKey: url.QueryEscape(k), literal: true, escValue: url.QueryEscape(v)})
		}
	}
	for k, v := range b.Params {
		st.params = append(st.params, beaconParam{key: k, escKey: url.QueryEscape(k), template: v})
		st.readsClock = st.readsClock || appmodel.ReadsClock(v)
	}
	// url.Values.Encode sorts by raw key and keeps each key's values in
	// the order Add appended them; matching it keeps the emitted query —
	// and thus the recorded flow URL — byte-identical.
	sort.SliceStable(st.params, func(a, b int) bool { return st.params[a].key < st.params[b].key })
	return st
}

func (tv *TV) fireBeacon(bi int) {
	app := tv.app
	if app == nil {
		return
	}
	tv.metrics.beacons.Inc()
	st := &app.bstates[bi]
	if st.err != nil {
		tv.logf(LogError, "beacon %s: %v", st.raw, st.err)
		return
	}
	// Without readsClock the templates ignore the clock, so the zero clock
	// renders the same query at every instant.
	vars := tv.appVars(st.readsClock)
	if !st.rendered || vars != st.vars {
		var sb strings.Builder
		sb.Grow(64)
		for i := range st.params {
			p := &st.params[i]
			if i > 0 {
				sb.WriteByte('&')
			}
			sb.WriteString(p.escKey)
			sb.WriteByte('=')
			if p.literal {
				sb.WriteString(p.escValue)
			} else {
				sb.WriteString(url.QueryEscape(vars.Expand(p.template)))
			}
		}
		st.query, st.vars, st.rendered = sb.String(), vars, true
	}
	u := &tv.reqURL
	*u = st.base
	u.RawQuery = st.query
	u.ForceQuery = st.forceQuery && st.query == ""
	if err := tv.getURL(u, app.baseStr); err != nil {
		tv.logf(LogError, "beacon %s: %v", u.String(), err)
	}
}

// bytesBody is implemented by response bodies whose full content is already
// in memory (the virtual network's). BodyBytes returns that content without
// another copy; the returned slice is read-only, and the virtual network
// lends it only until the body is closed.
type bytesBody interface {
	BodyBytes() []byte
}

// readBody returns a copy of resp's body, which outlives the response,
// and closes the body. An in-memory body is copied at its exact size.
func readBody(resp *http.Response) []byte {
	var body []byte
	if bb, ok := resp.Body.(bytesBody); ok {
		body = bytes.Clone(bb.BodyBytes())
	} else {
		body, _ = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	return body
}

// getBody performs a GET of rawURL, without a Referer, and returns a copy
// of the response body.
func (tv *TV) getBody(rawURL string) ([]byte, error) {
	u, err := parseRequestURL(rawURL)
	if err != nil {
		return nil, err
	}
	resp, err := tv.send(http.MethodGet, u, "", "", nil)
	if err != nil {
		return nil, err
	}
	return readBody(resp), nil
}

// get performs a GET of rawURL, discarding the body.
func (tv *TV) get(rawURL, referer string) error {
	u, err := parseRequestURL(rawURL)
	if err != nil {
		return err
	}
	return tv.getURL(u, referer)
}

// getURL is get for a URL that is already parsed — the beacon fast path.
func (tv *TV) getURL(u *url.URL, referer string) error {
	resp, err := tv.send(http.MethodGet, u, referer, "", nil)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

func (tv *TV) post(rawURL, referer, contentType string, body []byte) {
	u, err := parseRequestURL(rawURL)
	if err != nil {
		return
	}
	resp, err := tv.send(http.MethodPost, u, referer, contentType, body)
	if err != nil {
		tv.logf(LogError, "post %s: %v", rawURL, err)
		return
	}
	drain(resp)
}

// parseRequestURL parses a request URL as http.NewRequest does, dropping
// an empty port (RFC 3986 §6.2.3).
func parseRequestURL(rawURL string) (*url.URL, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	u.Host = strings.TrimSuffix(u.Host, ":")
	return u, nil
}

// maxRedirects is net/http.Client's default redirect limit: a request
// fails on its tenth redirect response instead of sending an eleventh hop.
const maxRedirects = 10

// send is the TV's HTTP stack: it sends a request through the configured
// transport and follows redirects, with the cookie jar in the loop. For
// the TV's requests it does what net/http.Client with the jar did, to the
// byte (TestTVRequestMatchesClient holds it to that):
//
//   - each hop carries the jar's cookies for its URL in one Cookie header,
//     and every response's Set-Cookie lines are stored before the next hop;
//   - 301, 302 and 303 turn a POST into a GET without a body, while 307
//     and 308 re-send the method and body; a 3xx without a Location is the
//     final response, and the tenth redirect fails;
//   - a hop repeats the first request's headers, and sends the previous
//     hop's URL as Referer unless the first request set one or the hop
//     goes from https to http;
//   - errors are *url.Error values with the client's operation, URL and
//     message, which the TV's logs carry.
//
// A hop's response lends its header and body only until its body is
// closed, so send reads a redirect's Location, its Set-Cookie lines and
// its Request before it closes the body and sends the next hop.
//
// The client's handling of user info in URLs (an Authorization header, a
// masked password in errors) has no counterpart: no HbbTV app request
// carries user info.
//
// Unlike the client it allocates no request or header map per hop: it
// rebuilds the TV's one request in place. The RoundTripper contract
// allows the reuse, because the transport may use a request only until
// the response body is closed, and send closes each hop's body before it
// sends the next. The caller reads and closes the returned body before
// the TV sends again.
func (tv *TV) send(method string, u *url.URL, referer, contentType string, body []byte) (*http.Response, error) {
	hopMethod, hopBody := method, body
	var resp *http.Response
	for hop := 0; ; hop++ {
		hopReferer := referer
		if hop > 0 {
			loc := resp.Header.Get("Location")
			if loc == "" {
				return resp, nil
			}
			at := u
			if resp.Request != nil {
				at = resp.Request.URL
			}
			resp.Body.Close()
			next, err := u.Parse(loc)
			if err != nil {
				return nil, urlError(method, at.String(), fmt.Errorf("failed to parse Location header %q: %v", loc, err))
			}
			if hopReferer == "" && !(u.Scheme == "https" && next.Scheme == "http") {
				hopReferer = u.String()
			}
			if hop >= maxRedirects {
				return nil, urlError(method, loc, fmt.Errorf("stopped after %d redirects", maxRedirects))
			}
			u = next
		}
		req := tv.request(hopMethod, u, hopReferer, contentType, hopBody)
		var err error
		if resp, err = tv.cfg.Transport.RoundTrip(req); err != nil {
			return nil, urlError(method, u.String(), err)
		}
		if rc := resp.Cookies(); len(rc) > 0 {
			tv.jar.SetCookies(u, rc)
		}
		switch resp.StatusCode {
		case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther:
			if hopMethod != http.MethodGet && hopMethod != http.MethodHead {
				hopMethod = http.MethodGet
			}
			hopBody = nil
		case http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		default:
			return resp, nil
		}
	}
}

// request rebuilds the TV's one request for a hop to u.
func (tv *TV) request(method string, u *url.URL, referer, contentType string, body []byte) *http.Request {
	h := tv.hdr
	clear(h)
	h["User-Agent"] = tv.uaValue
	vals := tv.hdrVals[:0]
	set := func(key, value string) {
		if value != "" {
			vals = append(vals, value)
			h[key] = vals[len(vals)-1 : len(vals) : len(vals)]
		}
	}
	set("Referer", referer)
	set("Content-Type", contentType)
	set("Cookie", tv.jar.CookieHeader(u))
	tv.req = http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		// Server-shaped, so the virtual network serves it without a copy.
		Body: http.NoBody,
	}
	if len(body) > 0 {
		tv.req.Body = io.NopCloser(bytes.NewReader(body))
		tv.req.ContentLength = int64(len(body))
	}
	return &tv.req
}

// urlError wraps a request failure the way net/http.Client reports one.
func urlError(method, rawURL string, err error) error {
	return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: rawURL, Err: err}
}

func drain(resp *http.Response) {
	if _, ok := resp.Body.(bytesBody); !ok {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
}

// pseudoFingerprint derives a stable per-device hash for a fingerprinting
// API — what a canvas/WebGL fingerprint boils down to for the analysis.
func (tv *TV) pseudoFingerprint(api string) string {
	h := uint64(1469598103934665603)
	for _, b := range []byte(api + LGDevice.Model + LGDevice.OS + tv.userID) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func resolveRef(base *url.URL, ref string) string {
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(u).String()
}

func addQuery(rawURL string, q url.Values) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL
	}
	query := u.Query()
	for k, vs := range q {
		for _, v := range vs {
			query.Add(k, v)
		}
	}
	u.RawQuery = query.Encode()
	return u.String()
}
