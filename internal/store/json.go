package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file holds the dataset's format-agnostic entry points (Save, Load)
// and the gzip-JSON format, so that data collection (cmd/hbbtv-measure)
// and analysis (cmd/hbbtv-analyze) can run as separate processes — the
// study's collection machine pushed to BigQuery and the analyses ran
// later. Gzip-JSON flattens flows into a portable, self-explaining schema;
// it is an export format, and the dataset's identity (Dataset.Digest) is
// defined over the binary snapshot instead (snapshot.go).
//
// Encoding is incremental: Save streams flow records one at a time into
// the writer instead of materializing a []flowJSON mirror. The bytes are
// what encoding/json emits for the datasetJSON mirror — it produces
// element-wise output for slices, so writing "[", the marshaled elements
// joined by ",", and "]" reproduces the one-shot encoding exactly — which
// keeps files written by earlier versions loadable and unchanged.

// datasetJSON is the serialized form of a Dataset.
type datasetJSON struct {
	Version int       `json:"version"`
	Runs    []runJSON `json:"runs"`
	// Telemetry is the engine's final telemetry snapshot. Older datasets
	// simply lack the field; Digest never covers it (see Dataset.Digest).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Shard is the fleet-campaign shard manifest. Like Telemetry it is
	// persisted but never covered by Digest (see Dataset.Shard).
	Shard *ShardManifest `json:"shard,omitempty"`
	// Trace is the engine's completed span trace. Like Telemetry it is
	// persisted but never covered by Digest (see Dataset.Trace).
	Trace *telemetry.Trace `json:"trace,omitempty"`
}

type runJSON struct {
	Name            RunName          `json:"name"`
	Date            time.Time        `json:"date"`
	Channels        []ChannelInfo    `json:"channels"`
	Flows           []flowJSON       `json:"flows"`
	Cookies         []cookieJSON     `json:"cookies"`
	Storage         []storageJSON    `json:"storage"`
	Screenshots     []screenshotJSON `json:"screenshots"`
	Logs            []logJSON        `json:"logs"`
	Outcomes        []outcomeJSON    `json:"outcomes,omitempty"`
	RecoveredPanics int              `json:"recoveredPanics,omitempty"`
}

type outcomeJSON struct {
	Channel  string        `json:"channel"`
	Status   OutcomeStatus `json:"status"`
	Attempts int           `json:"attempts,omitempty"`
	Error    string        `json:"error,omitempty"`
}

type flowJSON struct {
	ID        int64             `json:"id"`
	Time      time.Time         `json:"time"`
	Method    string            `json:"method"`
	URL       string            `json:"url"`
	HTTPS     bool              `json:"https"`
	ReqHdr    map[string]string `json:"reqHdr,omitempty"`
	ReqBody   []byte            `json:"reqBody,omitempty"`
	Status    int               `json:"status"`
	RespHdr   map[string]string `json:"respHdr,omitempty"`
	SetCookie []string          `json:"setCookie,omitempty"`
	RespSize  int64             `json:"respSize"`
	RespBody  []byte            `json:"respBody,omitempty"`
	Channel   string            `json:"channel,omitempty"`
	ChannelID string            `json:"channelId,omitempty"`
}

type cookieJSON struct {
	Name     string    `json:"name"`
	Value    string    `json:"value"`
	Domain   string    `json:"domain"`
	Path     string    `json:"path"`
	Expires  time.Time `json:"expires,omitempty"`
	Created  time.Time `json:"created"`
	HostOnly bool      `json:"hostOnly,omitempty"`
	SetBy    string    `json:"setBy,omitempty"`
}

type storageJSON struct {
	Origin string `json:"origin"`
	Key    string `json:"key"`
	Value  string `json:"value"`
}

type screenshotJSON struct {
	Time      time.Time            `json:"time"`
	Channel   string               `json:"channel"`
	ChannelID string               `json:"channelId"`
	HasSignal bool                 `json:"hasSignal"`
	Overlay   *appmodelOverlayJSON `json:"overlay,omitempty"`
	Show      string               `json:"show,omitempty"`
}

// appmodelOverlayJSON reuses the appmodel JSON tags by embedding the raw
// overlay; appmodel types are already JSON-serializable (the application
// manifest uses the same encoding).
type appmodelOverlayJSON = json.RawMessage

type logJSON struct {
	Time   time.Time     `json:"time"`
	Kind   webos.LogKind `json:"kind"`
	Detail string        `json:"detail"`
}

// Format selects one of the dataset's on-disk encodings. Save takes a
// Format; Load sniffs it from the leading magic bytes, so a round trip is
// format-agnostic at the read site.
type Format int

const (
	// FormatJSON is gzip-compressed JSON — portable, self-explaining,
	// slow to decode at paper scale.
	FormatJSON Format = iota
	// FormatSnapshot is the versioned binary snapshot — string/blob/
	// header tables, chunk-framed flow records decoded on all cores.
	FormatSnapshot
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Save writes the dataset to w in the chosen format, including the
// telemetry snapshot, shard manifest and span trace when attached; Load
// sniffs the format back.
func Save(w io.Writer, d *Dataset, f Format) error {
	switch f {
	case FormatJSON:
		return d.saveJSON(w)
	case FormatSnapshot:
		return d.saveSnapshot(w)
	}
	return fmt.Errorf("store: save: unknown format %v", f)
}

// saveJSON writes the dataset as gzip-compressed JSON.
func (d *Dataset) saveJSON(w io.Writer) error {
	gz := gzip.NewWriter(w)
	if err := d.encodeStream(gz); err != nil {
		return err
	}
	return gz.Close()
}

// streamEncoder writes canonical JSON incrementally, capturing the first
// error. The hand-written punctuation mirrors what encoding/json emits for
// the datasetJSON/runJSON structure: struct fields in declaration order,
// compact separators, omitempty semantics reproduced explicitly.
type streamEncoder struct {
	w   io.Writer
	err error
}

func (e *streamEncoder) raw(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *streamEncoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// val marshals v with encoding/json and writes the result.
func (e *streamEncoder) val(v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.bytes(b)
}

// encodeStream writes the dataset's JSON form incrementally, byte for byte
// what encoding/json emits for the datasetJSON mirror.
func (d *Dataset) encodeStream(w io.Writer) error {
	e := &streamEncoder{w: w}
	e.raw(`{"version":1,"runs":`)
	if len(d.Runs) == 0 {
		// The format has always encoded no runs as null, not [].
		e.raw("null")
	} else {
		e.raw("[")
		for i, run := range d.Runs {
			if i > 0 {
				e.raw(",")
			}
			e.run(run)
		}
		e.raw("]")
	}
	if d.Telemetry != nil {
		e.raw(`,"telemetry":`)
		e.val(d.Telemetry)
	}
	if d.Shard != nil {
		e.raw(`,"shard":`)
		e.val(d.Shard)
	}
	if d.Trace != nil {
		e.raw(`,"trace":`)
		e.val(d.Trace)
	}
	e.raw("}\n") // json.Encoder terminates the value with a newline
	if e.err != nil {
		return fmt.Errorf("store: save: %w", e.err)
	}
	return nil
}

// run streams one run object.
func (e *streamEncoder) run(run *RunData) {
	e.raw(`{"name":`)
	e.val(run.Name)
	e.raw(`,"date":`)
	e.val(run.Date)
	// Channels passes through as-is (nil stays null, empty stays []), so
	// marshal the slice directly.
	e.raw(`,"channels":`)
	e.val(run.Channels)
	e.raw(`,"flows":`)
	e.flows(run.Flows)
	e.raw(`,"cookies":`)
	listElems(e, len(run.Cookies), func(i int) any { return cookieJSON(run.Cookies[i]) })
	e.raw(`,"storage":`)
	listElems(e, len(run.Storage), func(i int) any { return storageJSON(run.Storage[i]) })
	e.raw(`,"screenshots":`)
	e.screenshots(run.Screenshots)
	e.raw(`,"logs":`)
	listElems(e, len(run.Logs), func(i int) any {
		l := run.Logs[i]
		return logJSON{Time: l.Time, Kind: l.Kind, Detail: l.Detail}
	})
	if len(run.Outcomes) > 0 {
		e.raw(`,"outcomes":`)
		listElems(e, len(run.Outcomes), func(i int) any { return outcomeJSON(run.Outcomes[i]) })
	}
	if run.RecoveredPanics != 0 {
		e.raw(`,"recoveredPanics":`)
		e.val(run.RecoveredPanics)
	}
	e.raw("}")
}

// listElems streams a JSON array element-wise. n == 0 emits null, as the
// format has always encoded empty lists.
func listElems(e *streamEncoder, n int, elem func(i int) any) {
	if n == 0 {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			e.raw(",")
		}
		e.val(elem(i))
	}
	e.raw("]")
}

// screenshots streams the screenshot list, pre-marshaling overlays into
// raw messages.
func (e *streamEncoder) screenshots(shots []webos.Screenshot) {
	if len(shots) == 0 {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range shots {
		if i > 0 {
			e.raw(",")
		}
		s := &shots[i]
		sj := screenshotJSON{
			Time: s.Time, Channel: s.Channel, ChannelID: s.ChannelID,
			HasSignal: s.HasSignal, Show: s.Show,
		}
		if s.Overlay != nil {
			raw, err := json.Marshal(s.Overlay)
			if err != nil {
				if e.err == nil {
					e.err = fmt.Errorf("marshal overlay: %w", err)
				}
				return
			}
			ov := appmodelOverlayJSON(raw)
			sj.Overlay = &ov
		}
		e.val(&sj)
	}
	e.raw("]")
}

// flowChunk is how many flows one encode chunk covers in the parallel fold.
const flowChunk = 256

// flowFlushThreshold is how many buffered bytes the serial flow encoder
// accumulates before flushing to the underlying writer.
const flowFlushThreshold = 64 << 10

// flows streams the flow list. Large lists are marshaled by GOMAXPROCS
// workers in chunks and folded into the writer in order, so the output is
// the canonical byte sequence while the JSON encoding work — the dominant
// cost — runs data-parallel.
func (e *streamEncoder) flows(flows []*proxy.Flow) {
	if len(flows) == 0 {
		e.raw("null")
		return
	}
	e.raw("[")
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(flows) > flowChunk {
		e.flowsParallel(flows, workers)
	} else {
		fe := newFlowEncoder()
		for i, f := range flows {
			if i > 0 {
				fe.buf.WriteByte(',')
			}
			if err := fe.append(f); err != nil {
				if e.err == nil {
					e.err = err
				}
				break
			}
			if fe.buf.Len() >= flowFlushThreshold {
				e.bytes(fe.buf.Bytes())
				fe.buf.Reset()
			}
		}
		e.bytes(fe.buf.Bytes())
	}
	e.raw("]")
}

// flowsParallel fans flow chunks out to workers and folds the marshaled
// bytes back in chunk order. A semaphore bounds how far workers may run
// ahead of the in-order fold, keeping memory proportional to the worker
// count rather than the dataset.
func (e *streamEncoder) flowsParallel(flows []*proxy.Flow, workers int) {
	nchunks := (len(flows) + flowChunk - 1) / flowChunk
	if workers > nchunks {
		workers = nchunks
	}
	type result struct {
		b   []byte
		err error
	}
	results := make([]chan result, nchunks)
	for i := range results {
		results[i] = make(chan result, 1)
	}
	sem := make(chan struct{}, 2*workers)
	jobs := make(chan int)
	go func() {
		for i := 0; i < nchunks; i++ {
			sem <- struct{}{}
			jobs <- i
		}
		close(jobs)
	}()
	for w := 0; w < workers; w++ {
		go func() {
			fe := newFlowEncoder()
			for idx := range jobs {
				lo := idx * flowChunk
				hi := min(lo+flowChunk, len(flows))
				fe.buf.Reset()
				var err error
				for i := lo; i < hi; i++ {
					if i > lo {
						fe.buf.WriteByte(',')
					}
					if err = fe.append(flows[i]); err != nil {
						break
					}
				}
				results[idx] <- result{b: bytes.Clone(fe.buf.Bytes()), err: err}
			}
		}()
	}
	for idx := 0; idx < nchunks; idx++ {
		res := <-results[idx]
		<-sem
		if res.err != nil {
			if e.err == nil {
				e.err = res.err
			}
			continue
		}
		if idx > 0 {
			e.raw(",")
		}
		e.bytes(res.b)
	}
}

// flowEncoder marshals flows one at a time, reusing its buffer, its
// flowJSON scratch record, and the two flattened header maps across calls,
// so no maps are allocated per flow (TestFlattenFlowAllocations pins this).
type flowEncoder struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	fj   flowJSON
	req  map[string]string
	resp map[string]string
}

func newFlowEncoder() *flowEncoder {
	fe := &flowEncoder{
		req:  make(map[string]string, 8),
		resp: make(map[string]string, 8),
	}
	fe.enc = json.NewEncoder(&fe.buf)
	return fe
}

// append appends f's canonical JSON object to the internal buffer.
func (fe *flowEncoder) append(f *proxy.Flow) error {
	fe.fj = flowJSON{
		ID: f.ID, Time: f.Time, Method: f.Method,
		URL: f.URL.String(), HTTPS: f.HTTPS,
		ReqBody: f.RequestBody,
		Status:  f.StatusCode, RespSize: f.ResponseSize,
		RespBody: f.ResponseBody,
		Channel:  f.Channel, ChannelID: f.ChannelID,
	}
	fe.fj.ReqHdr = flattenInto(fe.req, f.RequestHeaders)
	fe.fj.RespHdr = flattenInto(fe.resp, f.ResponseHeaders)
	// Set-Cookie is multi-valued and analysis-critical: keep every value.
	fe.fj.SetCookie = f.ResponseHeaders.Values("Set-Cookie")
	if fe.fj.RespHdr != nil {
		delete(fe.fj.RespHdr, "Set-Cookie")
	}
	if err := fe.enc.Encode(&fe.fj); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	fe.buf.Truncate(fe.buf.Len() - 1) // drop the Encoder's value-terminating newline
	return nil
}

// flattenInto flattens h into the caller-owned scratch map dst, joining
// multi-valued entries with "\n"; an empty header flattens to nil.
func flattenInto(dst map[string]string, h http.Header) map[string]string {
	if len(h) == 0 {
		return nil
	}
	clear(dst)
	for k, vs := range h {
		if len(vs) == 1 {
			dst[k] = vs[0]
			continue
		}
		dst[k] = strings.Join(vs, "\n")
	}
	return dst
}

// expandHeader rebuilds a header map, interning names and values in tab so
// a loaded dataset keeps one copy of each distinct header string instead of
// one per flow (the User-Agent alone repeats on every flow of a run).
func expandHeader(m map[string]string, tab *intern.Strings) http.Header {
	if len(m) == 0 {
		return make(http.Header)
	}
	h := make(http.Header, len(m))
	for k, joined := range m {
		// Stored keys came from live http.Header maps, so they are already
		// in canonical form and CanonicalHeaderKey returns its argument
		// without allocating.
		k = tab.Canon(http.CanonicalHeaderKey(k))
		if !strings.Contains(joined, "\n") {
			h[k] = []string{tab.Canon(joined)}
			continue
		}
		parts := strings.Split(joined, "\n")
		for i, p := range parts {
			parts[i] = tab.Canon(p)
		}
		h[k] = parts
	}
	return h
}

// Load reads a dataset in either of the two on-disk formats: gzip-JSON
// (FormatJSON) or the binary snapshot (FormatSnapshot). The format is
// sniffed from the leading magic bytes.
func Load(r io.Reader) (*Dataset, error) {
	return loadDedup(r, nil)
}

// LoadDedup is Load with a content-addressed dedup table: bodies and
// header blocks of the loaded dataset are canonicalized through dd, so
// loading K shard datasets of one campaign through a shared table holds
// one copy of each distinct payload instead of K. Snapshot inputs dedup
// during table decode (per distinct table entry); JSON inputs dedup in a
// post-load pass. dd must not be shared by concurrent loads.
func LoadDedup(r io.Reader, dd *Dedup) (*Dataset, error) {
	return loadDedup(r, dd)
}

func loadDedup(r io.Reader, dd *Dedup) (*Dataset, error) {
	// Seekable inputs (files, bytes.Reader) sniff without a buffering
	// wrapper, so loadSnapshot still sees the Seeker and can size its read
	// exactly instead of growing a buffer through io.ReadAll.
	if rs, ok := r.(io.ReadSeeker); ok {
		var magic [2]byte
		if _, err := io.ReadFull(rs, magic[:]); err != nil {
			return nil, fmt.Errorf("store: load: %w", err)
		}
		if _, err := rs.Seek(-2, io.SeekCurrent); err == nil {
			if magic[0] == snapshotMagic0 && magic[1] == snapshotMagic1 {
				return loadSnapshot(rs, dd)
			}
			return loadJSON(rs, dd)
		}
		// Cannot rewind (pathological Seeker): stitch the consumed magic
		// back on and take the buffered path below.
		r = io.MultiReader(bytes.NewReader(magic[:]), rs)
	}
	br := newSniffReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	if magic[0] == snapshotMagic0 && magic[1] == snapshotMagic1 {
		return loadSnapshot(br, dd)
	}
	return loadJSON(br, dd)
}

// loadJSON reads a dataset written in FormatJSON.
func loadJSON(r io.Reader, dd *Dedup) (*Dataset, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer gz.Close()
	var in datasetJSON
	if err := json.NewDecoder(gz).Decode(&in); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	// The JSON decoder stops at the value's closing brace, which leaves
	// the gzip trailer (and its CRC) unread — a file torn inside the
	// trailer would load "cleanly". Drain the stream so the checksum is
	// actually verified.
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("store: load: verify gzip stream: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("store: unsupported dataset version %d", in.Version)
	}
	tab := intern.NewStrings(256)
	d := &Dataset{Telemetry: in.Telemetry, Shard: in.Shard, Trace: in.Trace}
	for _, rj := range in.Runs {
		run, err := runFromJSON(&rj)
		if err != nil {
			return nil, err
		}
		if len(rj.Flows) > 0 {
			run.Flows = make([]*proxy.Flow, 0, len(rj.Flows))
			flowArena := make([]proxy.Flow, len(rj.Flows))
			for i, fj := range rj.Flows {
				if err := decodeFlowInto(&flowArena[i], fj, tab); err != nil {
					return nil, err
				}
				run.Flows = append(run.Flows, &flowArena[i])
			}
		}
		d.Runs = append(d.Runs, run)
	}
	if dd != nil {
		// The JSON format has no content tables, so canonicalize per flow
		// after the fact.
		dd.Apply(d)
	}
	return d, nil
}

// runFromJSON rebuilds a run's non-flow fields from its JSON form for the
// JSON loader, which decodes the flows separately.
func runFromJSON(rj *runJSON) (*RunData, error) {
	run := &RunData{
		Name: rj.Name, Date: rj.Date, Channels: rj.Channels,
		RecoveredPanics: rj.RecoveredPanics,
	}
	for _, c := range rj.Cookies {
		run.Cookies = append(run.Cookies, webos.StoredCookie(c))
	}
	for _, s := range rj.Storage {
		run.Storage = append(run.Storage, webos.StorageItem(s))
	}
	for _, sj := range rj.Screenshots {
		shot := webos.Screenshot{
			Time: sj.Time, Channel: sj.Channel, ChannelID: sj.ChannelID,
			HasSignal: sj.HasSignal, Show: sj.Show,
		}
		if sj.Overlay != nil {
			if err := json.Unmarshal(*sj.Overlay, &shot.Overlay); err != nil {
				return nil, fmt.Errorf("store: load overlay: %w", err)
			}
		}
		run.Screenshots = append(run.Screenshots, shot)
	}
	for _, l := range rj.Logs {
		run.Logs = append(run.Logs, webos.LogEntry{Time: l.Time, Kind: l.Kind, Detail: l.Detail})
	}
	for _, o := range rj.Outcomes {
		run.Outcomes = append(run.Outcomes, ChannelOutcome(o))
	}
	return run, nil
}

// decodeFlowInto reconstructs one flow in place, interning repeated strings
// through tab.
func decodeFlowInto(f *proxy.Flow, fj flowJSON, tab *intern.Strings) error {
	u, err := url.Parse(fj.URL)
	if err != nil {
		return fmt.Errorf("store: load flow url %q: %w", fj.URL, err)
	}
	*f = proxy.Flow{
		ID: fj.ID, Time: fj.Time, Method: tab.Canon(fj.Method), URL: u, HTTPS: fj.HTTPS,
		RequestHeaders:  expandHeader(fj.ReqHdr, tab),
		RequestBody:     fj.ReqBody,
		StatusCode:      fj.Status,
		ResponseHeaders: expandHeader(fj.RespHdr, tab),
		ResponseSize:    fj.RespSize,
		ResponseBody:    fj.RespBody,
		Channel:         tab.Canon(fj.Channel), ChannelID: tab.Canon(fj.ChannelID),
	}
	f.CacheHost(tab.Canon(u.Hostname()))
	if len(fj.SetCookie) > 0 {
		scs := make([]string, len(fj.SetCookie))
		for i, sc := range fj.SetCookie {
			scs[i] = tab.Canon(sc)
		}
		f.ResponseHeaders["Set-Cookie"] = scs
	}
	return nil
}
