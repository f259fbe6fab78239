package proxy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// AttributionWindow is how long after the last channel switch requests are
// still attributed to that channel. The paper considered requests from the
// last 15 minutes of channel watch time to minimize false positives.
const AttributionWindow = 15 * time.Minute

// RefererGrace is the window after a channel switch during which a request
// whose Referer belongs to the previous channel is re-attributed to it,
// accounting for delays during switching.
const RefererGrace = 10 * time.Second

// maxRecordedBody bounds how much of a request body is retained per flow.
const maxRecordedBody = 16 << 10

// BurstGap is the virtual-time silence that closes a flow burst: flows
// closer together than this (on the same channel) belong to one burst
// span — the trace's picture of "the app fired a volley of requests".
const BurstGap = 5 * time.Second

// arenaChunk is how many Flow records (and URLs) one arena block holds.
// Half a million flows land in ~1k block allocations instead of 1M
// individual ones, and records of one shard sit contiguously in memory.
const arenaChunk = 512

// Recorder intercepts HTTP(S) traffic and records flows. It is an
// http.RoundTripper wrapping an inner transport, safe for concurrent use.
type Recorder struct {
	inner http.RoundTripper
	clk   clock.Clock

	mu      sync.Mutex
	flows   []*Flow
	nextID  int64
	current channelEpoch
	prev    channelEpoch
	// flowArena and urlArena are the current allocation blocks for Flow
	// records and their URLs; strs interns host names at record time so a
	// run keeps one copy of each distinct host string.
	flowArena []Flow
	urlArena  []url.URL
	strs      *intern.Strings
	// headers maps each distinct header block (by AppendHeaderKey) to the
	// one read-only map every flow carrying it shares; keyBuf is the
	// scratch the key is built in, so a table hit allocates nothing. Both
	// intern tables live as long as the recorder: Reset keeps them.
	headers map[string]http.Header
	keyBuf  []byte
	// hostsByChannel remembers which hosts each channel contacted, feeding
	// the Referer-based attribution correction.
	hostsByChannel map[string]map[string]struct{}
	// disableReferer turns off the Referer correction; used by the
	// attribution ablation bench.
	disableReferer bool

	// Telemetry (all nil-safe when disabled): per-shard flow counters and
	// the flow-burst span.
	tele           *telemetry.Shard
	cFlows         *telemetry.BoundCounter
	cUnattributed  *telemetry.BoundCounter
	cResponseBytes *telemetry.BoundCounter
	// burst is the open flow-burst span: a detached span whose start and
	// end are flow timestamps, so the trace is identical no matter when
	// the burst is eventually closed (channel switch, reset, collection).
	burst        telemetry.SpanRef
	burstOpen    bool
	burstChannel string
	burstLast    time.Time
}

type channelEpoch struct {
	name  string
	id    string
	since time.Time
}

// NewRecorder returns a Recorder forwarding requests through inner and
// timestamping flows with clk.
func NewRecorder(inner http.RoundTripper, clk clock.Clock) *Recorder {
	return &Recorder{
		inner:          inner,
		clk:            clk,
		hostsByChannel: make(map[string]map[string]struct{}),
		strs:           intern.NewStrings(256),
		headers:        make(map[string]http.Header, 256),
	}
}

// SetTelemetry instruments the recorder as one shard of a telemetry
// registry: every recorded flow increments shard-local counters and is
// counted into its flow-burst span. A nil handle (telemetry disabled)
// leaves the hot path untouched.
func (r *Recorder) SetTelemetry(sh *telemetry.Shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tele = sh
	r.cFlows = sh.Counter("proxy_flows_recorded")
	r.cUnattributed = sh.Counter("proxy_flows_unattributed")
	r.cResponseBytes = sh.Counter("proxy_response_bytes")
}

// SetRefererCorrection enables or disables the Referer-based attribution
// correction (enabled by default).
func (r *Recorder) SetRefererCorrection(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disableReferer = !on
}

// SwitchChannel records that the remote-control script tuned the TV to the
// named channel. Subsequent flows are attributed to it.
func (r *Recorder) SwitchChannel(name, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeBurstLocked()
	r.prev = r.current
	r.current = channelEpoch{name: name, id: id, since: r.clk.Now()}
}

// closeBurstLocked ends the open flow-burst span at its last flow's
// timestamp. Callers hold r.mu.
func (r *Recorder) closeBurstLocked() {
	if r.burstOpen {
		r.burst.EndAt(r.burstLast)
		r.burst = telemetry.SpanRef{}
		r.burstOpen = false
	}
}

var _ http.RoundTripper = (*Recorder)(nil)

// bytesBody is the fast-path interface an in-memory response body (the
// virtual network's) exposes: its unread content, without an io.ReadAll
// copy and without consuming it.
type bytesBody interface {
	BodyBytes() []byte
}

// RoundTrip implements http.RoundTripper: it forwards the request through
// the inner transport and records a Flow.
//
// The recorded Flow never holds the caller's header maps: record points it
// at the recorder's shared copy of each block, so whatever the caller or
// the inner transport later writes to req.Header or to the returned
// resp.Header — the TV rebuilds its one request header map for its next
// request — cannot reach a recorded flow.
func (r *Recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var reqBody []byte
	if req.Body != nil && req.Body != http.NoBody {
		// The recorder consumes and closes the caller's body, as the
		// RoundTripper contract asks, and forwards a copy of the request
		// carrying the bytes it read; a body that fails to read is neither
		// forwarded nor recorded.
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("proxy: read request body: %w", err)
		}
		n := min(len(body), maxRecordedBody)
		reqBody = body[:n:n]
		fwd := *req
		fwd.Body = io.NopCloser(bytes.NewReader(body))
		req = &fwd
	}
	start := r.clk.Now()
	resp, err := r.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// Measure the response body while keeping it readable by the caller:
	// an in-memory body lends its bytes without being consumed, so the
	// caller reads the very body the transport returned; any other is
	// read once and handed on as a reader over the bytes read.
	var respBody []byte
	if bb, ok := resp.Body.(bytesBody); ok {
		respBody = bb.BodyBytes()
	} else {
		respBody, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(respBody))
	}
	resp.ContentLength = int64(len(respBody))

	f := Flow{
		Time:            start,
		Method:          req.Method,
		HTTPS:           req.URL.Scheme == "https",
		RequestHeaders:  req.Header,
		RequestBody:     reqBody,
		StatusCode:      resp.StatusCode,
		ResponseHeaders: resp.Header,
		ResponseSize:    int64(len(respBody)),
	}
	if isTextual(resp.Header.Get("Content-Type")) {
		n := len(respBody)
		if n > maxRecordedBody {
			n = maxRecordedBody
		}
		// The body's bytes are read-only to every holder; reference them
		// instead of copying.
		f.ResponseBody = respBody[:n:n]
	}
	r.record(&f, req.URL)
	return resp, nil
}

// record moves f into the arena, assigns its ID and attribution, and indexes
// it. f's URL is arena-cloned, its host interned and its header maps
// replaced by the recorder's shared blocks, so every flow of a shard shares
// one canonical copy per distinct host string and per distinct header block.
func (r *Recorder) record(f *Flow, u *url.URL) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.urlArena) == cap(r.urlArena) {
		r.urlArena = make([]url.URL, 0, arenaChunk)
	}
	r.urlArena = append(r.urlArena, *u)
	f.URL = &r.urlArena[len(r.urlArena)-1]
	f.host = r.strs.Canon(f.URL.Hostname())
	f.RequestHeaders = r.headerLocked(f.RequestHeaders)
	f.ResponseHeaders = r.headerLocked(f.ResponseHeaders)
	r.nextID++
	f.ID = r.nextID
	f.Channel, f.ChannelID = r.attributeLocked(f)
	if f.Channel != "" {
		hosts := r.hostsByChannel[f.Channel]
		if hosts == nil {
			hosts = make(map[string]struct{})
			r.hostsByChannel[f.Channel] = hosts
		}
		hosts[f.host] = struct{}{}
	}
	if len(r.flowArena) == cap(r.flowArena) {
		r.flowArena = make([]Flow, 0, arenaChunk)
	}
	r.flowArena = append(r.flowArena, *f)
	fp := &r.flowArena[len(r.flowArena)-1]
	r.flows = append(r.flows, fp)
	if r.tele.Active() {
		r.cFlows.Inc()
		r.cResponseBytes.Add(uint64(f.ResponseSize))
		if f.Channel == "" {
			r.cUnattributed.Inc()
		}
		// Flow bursts: consecutive flows on one channel separated by less
		// than BurstGap of virtual time share a burst span bounded by flow
		// timestamps (never by when the burst happens to be closed).
		if r.burstOpen && (f.Channel != r.burstChannel || f.Time.Sub(r.burstLast) > BurstGap) {
			r.closeBurstLocked()
		}
		if !r.burstOpen {
			r.burst = r.tele.OpenSpanAt(telemetry.SpanBurst, f.Channel, f.Time)
			r.burstOpen = true
			r.burstChannel = f.Channel
		}
		r.burst.AddFlow()
		r.burstLast = f.Time
	}
}

// headerLocked returns the recorder's shared map for h's block, cloning h
// on first sight; h itself stays the caller's. A nil header stays nil.
// Callers hold r.mu.
func (r *Recorder) headerLocked(h http.Header) http.Header {
	if h == nil {
		return nil
	}
	r.keyBuf = AppendHeaderKey(r.keyBuf[:0], h)
	if canon, ok := r.headers[string(r.keyBuf)]; ok {
		return canon
	}
	canon := h.Clone()
	r.headers[string(r.keyBuf)] = canon
	return canon
}

// AppendHeaderKey appends the canonical content key of a header block to
// dst: the names in sorted order, each followed by its value count and
// values, every string length-prefixed, so two blocks share a key exactly
// when they hold the same names and values. It is the one block key of the
// module: the recorder's header table and store.Dedup both use it. Beyond
// growing dst it allocates nothing for blocks of up to 32 names.
func AppendHeaderKey(dst []byte, h http.Header) []byte {
	var stack [32]string
	names := stack[:0]
	for name := range h {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		values := h[name]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(len(values)))
		for _, v := range values {
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	return dst
}

// attributeLocked maps a flow to a channel. Callers hold r.mu.
func (r *Recorder) attributeLocked(f *Flow) (name, id string) {
	cur := r.current
	if cur.name == "" {
		return "", ""
	}
	age := f.Time.Sub(cur.since)
	if age < 0 || age > AttributionWindow {
		return "", ""
	}
	// Referer correction: shortly after a switch, a request whose Referer
	// host was seen on the previous channel (and not yet on the current
	// one) belongs to content still loading for the previous channel.
	if !r.disableReferer && r.prev.name != "" && age <= RefererGrace {
		if ref := f.Referer(); ref != "" {
			if u, err := url.Parse(ref); err == nil {
				host := u.Hostname()
				_, onPrev := r.hostsByChannel[r.prev.name][host]
				_, onCur := r.hostsByChannel[cur.name][host]
				if onPrev && !onCur {
					return r.prev.name, r.prev.id
				}
			}
		}
	}
	return cur.name, cur.id
}

// Flows returns a snapshot copy of all recorded flows. Collection also
// closes any open flow-burst span (its end is the last flow's timestamp,
// so closing late changes nothing).
func (r *Recorder) Flows() []*Flow {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeBurstLocked()
	out := make([]*Flow, len(r.flows))
	copy(out, r.flows)
	return out
}

// Reset discards all recorded flows and channel state. Used between
// measurement runs ("wipe and power off"). The host and header intern
// tables are kept: they hold only immutable values, so flows recorded
// after a reset share them with flows recorded before it.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeBurstLocked()
	r.flows = nil
	r.flowArena = nil
	r.urlArena = nil
	r.current = channelEpoch{}
	r.prev = channelEpoch{}
	r.hostsByChannel = make(map[string]map[string]struct{})
}

// Len returns the number of recorded flows.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flows)
}

// NextID returns the flow-ID counter — the one piece of recorder state
// that survives Reset and shows in the dataset (flow IDs run across
// measurement runs within a shard), so it is part of a checkpoint cell's
// state.
func (r *Recorder) NextID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// RestoreNextID fast-forwards a fresh recorder's flow-ID counter to a
// checkpointed value. It fails when flows have already been recorded
// past the target — the counter cannot be rewound.
func (r *Recorder) RestoreNextID(next int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if next < r.nextID {
		return fmt.Errorf("proxy: cannot rewind flow-ID counter from %d to %d", r.nextID, next)
	}
	r.nextID = next
	return nil
}

// isTextual reports whether a content type is worth retaining for content
// analyses (scripts, markup, JSON/text payloads). Media types compare
// case-insensitively (RFC 9110 §8.3.1).
func isTextual(contentType string) bool {
	ct := contentType
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	ct = strings.ToLower(ct)
	if strings.HasPrefix(ct, "text/") {
		return true
	}
	for _, t := range []string{"javascript", "json", "xml", "xhtml", "html"} {
		if strings.Contains(ct, t) {
			return true
		}
	}
	return false
}
