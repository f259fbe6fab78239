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

// maxRecordedBody bounds how much of a request body, and of a textual
// response body, is retained per flow.
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
	// recentReq and recentResp hold, per role, the blocks record returned
	// last, most recent first: consecutive flows mostly carry one of them,
	// and a flow that does is matched without building its key.
	headers    map[string]*headerBlock
	keyBuf     []byte
	recentReq  recentBlocks
	recentResp recentBlocks
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
		headers:        make(map[string]*headerBlock, 256),
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
// copy and without consuming it. The bytes are lent: they stay valid only
// until the caller closes the body.
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
// request, and the virtual network reuses a response's header map once
// the caller closes the body — cannot reach a recorded flow. Nor does it
// hold lent body bytes: it keeps its own copy of the textual prefix.
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
	// read once and handed on as a reader over the bytes read. That reader
	// closes the body it replaces only when the caller closes it, since
	// a transport may lend the response's header until then.
	var respBody []byte
	bb, lent := resp.Body.(bytesBody)
	if lent {
		respBody = bb.BodyBytes()
	} else {
		// A body cut by a reset yields the bytes read before the error, and
		// the caller reads exactly those, with no error: through the
		// recorder, a reset and a truncation look alike, a short body whose
		// ContentLength says what arrived. Failing the round trip instead
		// would change which visits fail.
		respBody, _ = io.ReadAll(resp.Body)
		resp.Body = readBody{Reader: bytes.NewReader(respBody), Closer: resp.Body}
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
	r.record(&f, req.URL, respBody, lent)
	return resp, nil
}

// readBody is a response body the recorder read whole: it reads the bytes
// read, and its Close closes the body they were read from.
type readBody struct {
	*bytes.Reader
	io.Closer
}

// record moves f into the arena, assigns its ID and attribution, and indexes
// it. f's URL is arena-cloned, its host interned and its header maps
// replaced by the recorder's shared blocks, so every flow of a shard shares
// one canonical copy per distinct host string and per distinct header block.
// The response block also settles whether the flow keeps a prefix of
// respBody, the body's bytes, lent by the inner transport when lent is set.
func (r *Recorder) record(f *Flow, u *url.URL, respBody []byte, lent bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.urlArena) == cap(r.urlArena) {
		r.urlArena = make([]url.URL, 0, arenaChunk)
	}
	r.urlArena = append(r.urlArena, *u)
	f.URL = &r.urlArena[len(r.urlArena)-1]
	f.host = r.strs.Canon(f.URL.Hostname())
	if b := r.blockLocked(&r.recentReq, f.RequestHeaders); b != nil {
		f.RequestHeaders = b.h
	}
	if b := r.blockLocked(&r.recentResp, f.ResponseHeaders); b != nil {
		f.ResponseHeaders = b.h
		if b.textual {
			n := min(len(respBody), maxRecordedBody)
			// A whole body read by RoundTrip is read-only to every holder
			// and is referenced. Lent bytes are reused once the caller
			// closes the body, and a prefix would pin its body's whole
			// array, so both are copied.
			f.ResponseBody = respBody[:n:n]
			if lent || n < len(respBody) {
				f.ResponseBody = bytes.Clone(f.ResponseBody)
			}
		}
	}
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

// headerBlock is one distinct header block of the recorder's table: the
// read-only map every flow carrying the block shares, its names with their
// values, and whether a response carrying it has a textual Content-Type,
// so keeps its body.
type headerBlock struct {
	h       http.Header
	names   []string
	values  [][]string
	textual bool
}

// newHeaderBlock clones h into a new shared block.
func newHeaderBlock(h http.Header) *headerBlock {
	b := &headerBlock{h: h.Clone(), names: make([]string, 0, len(h)), values: make([][]string, 0, len(h))}
	for name, vs := range b.h {
		b.names = append(b.names, name)
		b.values = append(b.values, vs)
	}
	b.textual = isTextual(b.h.Get("Content-Type"))
	return b
}

// holds reports whether h is b's block. A map with as many entries as b,
// each of b's names present with b's values, has b's names and values
// exactly, so it has b's AppendHeaderKey.
func (b *headerBlock) holds(h http.Header) bool {
	if len(h) != len(b.names) {
		return false
	}
	for i, name := range b.names {
		vs, ok := h[name]
		if !ok || !slices.Equal(vs, b.values[i]) {
			return false
		}
	}
	return true
}

// recentBlocks is one role's most recently returned blocks, most recent
// first; nil slots are free.
type recentBlocks [4]*headerBlock

// blockLocked returns the recorder's shared block for h, cloning h on first
// sight; h itself stays the caller's. It tries the role's recent blocks
// before it builds h's key and asks the table, and moves the block it
// returns to the front of recent. A nil header has no block. Callers hold
// r.mu.
func (r *Recorder) blockLocked(recent *recentBlocks, h http.Header) *headerBlock {
	if h == nil {
		return nil
	}
	for i, b := range recent {
		if b == nil {
			break
		}
		if b.holds(h) {
			copy(recent[1:i+1], recent[:i])
			recent[0] = b
			return b
		}
	}
	r.keyBuf = AppendHeaderKey(r.keyBuf[:0], h)
	b, ok := r.headers[string(r.keyBuf)]
	if !ok {
		b = newHeaderBlock(h)
		r.headers[string(r.keyBuf)] = b
	}
	copy(recent[1:], recent[:len(recent)-1])
	recent[0] = b
	return b
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
