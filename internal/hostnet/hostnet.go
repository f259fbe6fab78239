// Package hostnet provides the virtual Internet the synthetic HbbTV
// ecosystem runs on: a registry mapping domain names to http.Handlers, an
// in-process http.RoundTripper that dispatches requests to those handlers
// without touching the network, and an optional loopback mode that serves
// the same registry over a real TCP listener.
//
// The study's channels are real HTTP services run by broadcasters; here
// they are handlers registered on this virtual Internet. Both transport
// modes produce byte-identical responses, which the ablation bench
// (BenchmarkTransportModes) verifies; full-scale runs use the in-process
// mode, while integration tests also exercise the loopback path through a
// real CONNECT proxy.
package hostnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
)

// ErrUnknownHost is returned by the in-process transport when a request
// names a domain that is not registered — the virtual analog of NXDOMAIN.
var ErrUnknownHost = errors.New("hostnet: unknown host")

// Internet is the registry of virtual hosts. The zero value is not usable;
// construct with New.
type Internet struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler // exact host match
	wild  map[string]http.Handler // "*.example.de" stored as "example.de"
}

// New returns an empty virtual Internet.
func New() *Internet {
	return &Internet{
		hosts: make(map[string]http.Handler),
		wild:  make(map[string]http.Handler),
	}
}

// Handle registers h for the given host name. A host of the form
// "*.domain" registers a wildcard that matches any subdomain of domain
// (but not domain itself). Registering the same host twice replaces the
// earlier handler.
func (in *Internet) Handle(host string, h http.Handler) {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	in.mu.Lock()
	defer in.mu.Unlock()
	if rest, ok := strings.CutPrefix(host, "*."); ok {
		in.wild[rest] = h
		return
	}
	in.hosts[host] = h
}

// HandleFunc is the http.HandleFunc analog of Handle.
func (in *Internet) HandleFunc(host string, f func(http.ResponseWriter, *http.Request)) {
	in.Handle(host, http.HandlerFunc(f))
}

// Lookup resolves host to a registered handler. Exact matches win over
// wildcard matches; wildcard matching walks up the label chain so that
// "a.b.example.de" matches "*.example.de".
func (in *Internet) Lookup(host string) (http.Handler, bool) {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	// Only a host holding a ':' can carry a port; splitting any other host
	// would fail and allocate the error.
	if strings.IndexByte(host, ':') >= 0 {
		if h, _, err := net.SplitHostPort(host); err == nil {
			host = h
		}
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if h, ok := in.hosts[host]; ok {
		return h, true
	}
	for {
		i := strings.IndexByte(host, '.')
		if i < 0 {
			return nil, false
		}
		host = host[i+1:]
		if h, ok := in.wild[host]; ok {
			return h, true
		}
	}
}

// Hosts returns the sorted list of exactly-registered host names; wildcards
// are reported with their "*." prefix. Primarily for diagnostics and tests.
func (in *Internet) Hosts() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, 0, len(in.hosts)+len(in.wild))
	for h := range in.hosts {
		out = append(out, h)
	}
	for h := range in.wild {
		out = append(out, "*."+h)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	// Tiny insertion sort keeps this file free of a sort import fight;
	// host lists are small and this is diagnostics-only.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Transport is an http.RoundTripper that dispatches requests to the
// registered handlers in-process. If Clock is non-nil, each round trip
// advances it by Latency, giving flows a realistic timeline on the virtual
// clock without real waiting.
//
// When Faults is non-nil, the transport injects the injector's
// request-level fault kinds: DNS failures and refused connections surface
// before dispatch, timeouts and hangs burn their delay on the virtual
// clock, 5xx bursts synthesize an error response without reaching the
// handler, and truncate/reset faults mangle the response body after the
// handler ran. FaultScope supplies the (channel, attempt) half of the
// decision key so a retry attempt rolls a fresh schedule.
type Transport struct {
	Net     *Internet
	Clock   clock.Clock
	Latency func(req *http.Request) (reqDelay, respDelay int) // optional, in milliseconds

	// Faults injects deterministic request-level faults (nil = reliable).
	Faults *faults.Injector
	// FaultScope reports the channel and visit attempt the current request
	// belongs to (nil = empty channel, attempt 0).
	FaultScope func() (channel string, attempt int)
	// OnFault is invoked for every injected fault (telemetry hook).
	OnFault func(kind faults.Kind, host string)
}

var _ http.RoundTripper = (*Transport)(nil)

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if host == "" {
		host = req.Host
	}
	fault := t.fault(host)
	switch fault.Kind {
	case faults.KindDNS:
		return nil, fmt.Errorf("hostnet: lookup %q: %w", host, faults.ErrDNS)
	case faults.KindConnRefused:
		return nil, fmt.Errorf("hostnet: dial %q: %w", host, faults.ErrConnRefused)
	case faults.KindTimeout, faults.KindHang:
		if t.Clock != nil {
			t.Clock.Sleep(fault.Delay)
		}
		return nil, fmt.Errorf("hostnet: %q after %v: %w", host, fault.Delay, faults.ErrTimeout)
	case faults.KindHTTP5xx:
		return errorResponse(req, fault.Status), nil
	}
	h, ok := t.Net.Lookup(host)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	if t.Clock != nil && t.Latency != nil {
		d, _ := t.Latency(req)
		if d > 0 {
			t.Clock.Sleep(time.Duration(d) * time.Millisecond)
		}
	}
	rec := newRecorder()
	// Handlers expect a server-side request: Body non-nil, RequestURI unset.
	// A shallow copy suffices: the registered handlers read the request but
	// never mutate its header or URL, so the deep Clone the transport used
	// to make per dispatch only fed the garbage collector.
	sreq := *req
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	sreq.RequestURI = ""
	h.ServeHTTP(rec, &sreq)
	if t.Clock != nil && t.Latency != nil {
		_, d := t.Latency(req)
		if d > 0 {
			t.Clock.Sleep(time.Duration(d) * time.Millisecond)
		}
	}
	resp := rec.result(req)
	switch fault.Kind {
	case faults.KindTruncate:
		truncateBody(resp, fault.KeepPermille, nil)
	case faults.KindReset:
		truncateBody(resp, fault.KeepPermille, faults.ErrReset)
	}
	return resp, nil
}

// fault resolves the injected fault for one request, reporting it to the
// OnFault hook.
func (t *Transport) fault(host string) faults.Fault {
	if t.Faults == nil {
		return faults.Fault{}
	}
	var channel string
	var attempt int
	if t.FaultScope != nil {
		channel, attempt = t.FaultScope()
	}
	f := t.Faults.HTTP(host, channel, attempt)
	if f.Kind != faults.KindNone && t.OnFault != nil {
		t.OnFault(f.Kind, host)
	}
	return f
}

// statusLines caches the "200 OK"-style status line for every code the
// net/http status table knows, replacing a per-response fmt.Sprintf.
var statusLines = func() [600]string {
	var lines [600]string
	for code := 100; code < 600; code++ {
		if text := http.StatusText(code); text != "" {
			lines[code] = fmt.Sprintf("%d %s", code, text)
		}
	}
	return lines
}()

// statusLine returns the status line for code.
func statusLine(code int) string {
	if code >= 0 && code < len(statusLines) && statusLines[code] != "" {
		return statusLines[code]
	}
	return fmt.Sprintf("%d %s", code, http.StatusText(code))
}

// memBody is an in-memory response body. It implements the BodyBytes fast
// path the TV and the recording proxy use to take the bytes without another
// io.ReadAll copy.
type memBody struct {
	b   []byte
	off int
}

func newMemBody(b []byte) *memBody { return &memBody{b: b} }

func (m *memBody) Read(p []byte) (int, error) {
	if m.off >= len(m.b) {
		return 0, io.EOF
	}
	n := copy(p, m.b[m.off:])
	m.off += n
	return n, nil
}

// BodyBytes returns the unread remainder and consumes the body — the same
// bytes an io.ReadAll would have produced, without the copy. The returned
// slice is read-only.
func (m *memBody) BodyBytes() []byte {
	b := m.b[m.off:]
	m.off = len(m.b)
	return b
}

func (m *memBody) Close() error { return nil }

// errorResponse synthesizes an injected 5xx without invoking any handler —
// the virtual analog of an app server answering from a failing backend.
func errorResponse(req *http.Request, code int) *http.Response {
	body := []byte(http.StatusText(code) + "\n")
	h := make(http.Header)
	h.Set("Content-Type", "text/plain; charset=utf-8")
	return &http.Response{
		Status:        statusLine(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          newMemBody(body),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody cuts the response body down to keepPermille/1000 of its
// bytes. ContentLength keeps the full length — the damage is silent, like
// a connection dropped mid-stream. A non-nil readErr is surfaced after the
// kept prefix (mid-body reset); nil mimics a clean-looking short read.
func truncateBody(resp *http.Response, keepPermille int, readErr error) {
	var body []byte
	if mb, ok := resp.Body.(*memBody); ok {
		body = mb.BodyBytes()
	} else {
		body, _ = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	kept := body[:len(body)*keepPermille/1000]
	if readErr == nil {
		resp.Body = newMemBody(kept)
		return
	}
	resp.Body = io.NopCloser(&failAfterReader{r: bytes.NewReader(kept), err: readErr})
}

// failAfterReader yields r's bytes, then err instead of io.EOF.
type failAfterReader struct {
	r   io.Reader
	err error
}

func (fr *failAfterReader) Read(p []byte) (int, error) {
	n, err := fr.r.Read(p)
	if err == io.EOF {
		err = fr.err
	}
	return n, err
}

// recorder is a minimal ResponseWriter capturing status, headers, and body.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
	wrote  bool
}

func newRecorder() *recorder {
	return &recorder{code: http.StatusOK, header: make(http.Header)}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.wrote {
		return
	}
	r.wrote = true
	r.code = code
}

func (r *recorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.body.Write(b)
}

func (r *recorder) result(req *http.Request) *http.Response {
	body := r.body.Bytes()
	return &http.Response{
		Status:     statusLine(r.code),
		StatusCode: r.code,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		// The recorder's header map is per-request and unreferenced after
		// the handler returns; hand it over instead of cloning.
		Header:        r.header,
		Body:          newMemBody(body),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// Server serves the registry over a real TCP loopback listener, routing by
// Host header. It exists so integration tests can drive the full network
// path (TV -> CONNECT proxy -> TCP -> virtual host).
type Server struct {
	in   *Internet
	ln   net.Listener
	http *http.Server
}

// Serve starts a loopback server for the registry and returns it. Callers
// must Close it.
func Serve(in *Internet) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("hostnet: listen: %w", err)
	}
	s := &Server{
		in: in,
		ln: ln,
	}
	s.http = &http.Server{Handler: http.HandlerFunc(s.route)}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	h, ok := s.in.Lookup(r.Host)
	if !ok {
		http.Error(w, "unknown virtual host "+r.Host, http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// Addr returns the listener address, e.g. "127.0.0.1:43121".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }
