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
//
// The in-process transport rebuilds nothing a request already carries. A
// request that is already server-shaped (a non-nil Body and an empty
// RequestURI, as the TV sends) reaches the handler as is; any other gets
// a shallow copy that is. The handler answers into a pooled
// ResponseWriter, so a handler must not keep the ResponseWriter or the
// request after ServeHTTP returns.
//
// The response is lent, not copied out. Its Header is the writer's header
// map and its in-memory body reads the writer's buffer, until the first
// Body.Close. That Close detaches the response, whose Header becomes nil
// and whose body reads empty, and returns the writer to the pool; any
// later Close does nothing. A caller therefore reads the header and the
// body, and copies whatever must outlive them, before it closes the body,
// and keeps no reference into either afterwards. Each response is its own
// http.Response, so a stale Close ends only its own lease.
package hostnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
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

// Clone returns a new registry holding the same host and wildcard
// entries. The handlers themselves are shared, not copied; registering a
// host on either registry leaves the other unchanged.
func (in *Internet) Clone() *Internet {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return &Internet{hosts: maps.Clone(in.hosts), wild: maps.Clone(in.wild)}
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
	slices.Sort(out)
	return out
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
	var reqDelay, respDelay int
	if t.Clock != nil && t.Latency != nil {
		// One call per round trip, so a model drawing from a source draws
		// both halves of one request together.
		reqDelay, respDelay = t.Latency(req)
	}
	t.sleep(reqDelay)
	// Handlers expect a server-side request: Body non-nil, RequestURI
	// unset. The registered handlers read the request but never write its
	// header or URL, so one already in that shape is passed as is.
	sreq := req
	if req.Body == nil || req.RequestURI != "" {
		cp := *req
		if cp.Body == nil {
			cp.Body = http.NoBody
		}
		cp.RequestURI = ""
		sreq = &cp
	}
	w := getWriter()
	h.ServeHTTP(w, sreq)
	resp := w.lend(req)
	t.sleep(respDelay)
	switch fault.Kind {
	case faults.KindTruncate:
		truncateBody(resp, fault.KeepPermille, nil)
	case faults.KindReset:
		truncateBody(resp, fault.KeepPermille, faults.ErrReset)
	}
	return resp, nil
}

// sleep advances the clock by ms milliseconds of latency.
func (t *Transport) sleep(ms int) {
	if ms > 0 {
		t.Clock.Sleep(time.Duration(ms) * time.Millisecond)
	}
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

// lease is the response the transport hands out: the http.Response and
// its in-memory body in one allocation. A handler's answer lends the
// response its writer's header map and body buffer until the first Close;
// an injected error response holds its own.
type lease struct {
	http.Response
	w   *writer // the lent writer, nil once returned or when none was lent
	b   []byte
	off int
}

// newResponse returns a response to req with the given status, header and
// body, lent from w when w is non-nil; ContentLength is the body's length.
func newResponse(req *http.Request, code int, h http.Header, body []byte, w *writer) *http.Response {
	l := &lease{
		Response: http.Response{
			Status:        statusLine(code),
			StatusCode:    code,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        h,
			ContentLength: int64(len(body)),
			Request:       req,
		},
		w: w,
		b: body,
	}
	l.Body = l
	return &l.Response
}

func (l *lease) Read(p []byte) (int, error) {
	if l.off >= len(l.b) {
		return 0, io.EOF
	}
	n := copy(p, l.b[l.off:])
	l.off += n
	return n, nil
}

// BodyBytes returns the unread remainder without consuming it — the same
// bytes an io.ReadAll would produce, without the copy — so the TV and the
// recording proxy take the body in place, and the proxy can read a body
// its caller then reads again. The returned slice is read-only and valid
// only until Close.
func (l *lease) BodyBytes() []byte { return l.b[l.off:] }

// Close detaches the response: its Header becomes nil, its body reads
// empty, and a lent writer goes back to the pool. Any later Close does
// nothing.
func (l *lease) Close() error {
	l.Header = nil
	l.b, l.off = nil, 0
	if w := l.w; w != nil {
		l.w = nil
		w.release()
	}
	return nil
}

// errorResponse synthesizes an injected 5xx without invoking any handler —
// the virtual analog of an app server answering from a failing backend.
func errorResponse(req *http.Request, code int) *http.Response {
	h := make(http.Header)
	h.Set("Content-Type", "text/plain; charset=utf-8")
	return newResponse(req, code, h, []byte(http.StatusText(code)+"\n"), nil)
}

// truncateBody cuts the response body down to keepPermille/1000 of its
// bytes. ContentLength keeps the full length — the damage is silent, like
// a connection dropped mid-stream. A non-nil readErr is surfaced after the
// kept prefix (mid-body reset); nil mimics a clean-looking short read.
// Either way the body stays the lease, so the writer goes back to the
// pool only when the body is closed.
func truncateBody(resp *http.Response, keepPermille int, readErr error) {
	l := resp.Body.(*lease)
	l.b = l.b[:len(l.b)*keepPermille/1000]
	if readErr != nil {
		resp.Body = failAfterBody{ReadCloser: l, err: readErr}
	}
}

// failAfterBody yields its body's bytes, then err instead of io.EOF. It
// hides the lease's BodyBytes, so every reader meets the error.
type failAfterBody struct {
	io.ReadCloser
	err error
}

func (fb failAfterBody) Read(p []byte) (int, error) {
	n, err := fb.ReadCloser.Read(p)
	if err == io.EOF {
		err = fb.err
	}
	return n, err
}

// writer is the ResponseWriter a handler answers into. A pooled writer
// keeps its header map and body buffer: lend hands both to the response,
// and the response's first Close clears them and returns the writer to
// writerPool, so no two open responses share a map or a buffer.
type writer struct {
	code   int
	header http.Header
	body   bytes.Buffer
	wrote  bool
}

var writerPool = sync.Pool{New: func() any { return &writer{header: make(http.Header)} }}

// maxPooledBody bounds the body buffer a writer takes back to the pool, so
// one large response does not pin its buffer for the process's lifetime.
const maxPooledBody = 64 << 10

// getWriter takes a writer from the pool, ready for one request.
func getWriter() *writer {
	w := writerPool.Get().(*writer)
	w.code = http.StatusOK
	return w
}

func (w *writer) Header() http.Header { return w.header }

func (w *writer) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.code = code
}

func (w *writer) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.body.Write(b)
}

// lend returns the handler's answer as a response that holds w until its
// body is closed: the header map and the buffered bytes themselves, not
// copies. An empty body is nil, as a copied-out one was.
func (w *writer) lend(req *http.Request) *http.Response {
	var body []byte
	if w.body.Len() > 0 {
		body = w.body.Bytes()
	}
	return newResponse(req, w.code, w.header, body, w)
}

// release empties w's header map and body buffer and returns it to the
// pool, unless the buffer grew past maxPooledBody.
func (w *writer) release() {
	clear(w.header)
	w.wrote = false
	w.body.Reset()
	if w.body.Cap() <= maxPooledBody {
		writerPool.Put(w)
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
