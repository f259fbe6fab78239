package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file implements the binary snapshot format: the container the
// engine persists in, and the bytes Dataset.Digest hashes. Every string a
// dataset repeats (hosts, header names and values, channel names, log
// details) is stored once in a shared table, every body once in a
// deduplicated blob table, and records reference them by dense integer
// ID. Loading a snapshot rebuilds the dataset by table lookup instead of
// JSON decoding and URL re-parsing, which is what makes paper-scale loads
// land at a fraction of the gzip-JSON cost.
//
// The container has one writer, writeContainer, and one reader,
// readContainer. Dataset snapshots (saveSnapshot, loadSnapshot),
// checkpoints (WriteCheckpoint, decodeCheckpoint in checkpoint.go) and
// Digest are thin callers that differ only in the JSON sections they put
// around the runs.
//
// Layout (all integers are varints, "uv" = unsigned, "v" = signed; strings
// are uv IDs into the string table; a time is a presence byte: 0 = the
// zero time, 1 = v unix nanoseconds follow, 2 = v unix seconds and uv
// nanoseconds follow, used only for times UnixNano cannot hold — before
// 1678 or after 2262):
//
//	magic "HBTV", version byte
//	sections, each: tag byte, uv payload length, payload
//	  tag 1  string table: uv count, then per string uv len + bytes
//	  tag 2  blob table:   uv count, then per blob   uv len + bytes
//	  tag 3  run:          name, date,
//	                       channels (uv count+1, 0 = nil: name, id,
//	                         satellite, language, uv category count +
//	                         categories, show, genre),
//	                       cookies (uv count: name, value, domain, path,
//	                         expires, created, host-only byte, set-by),
//	                       storage (uv count: origin, key, value),
//	                       screenshots (uv count: time, channel, channel-id,
//	                         has-signal byte, show, uv overlay-JSON ref,
//	                         0 = none else string ID + 1),
//	                       logs (uv count: time, kind, detail),
//	                       outcomes (uv count: channel, status, v attempts,
//	                         error),
//	                       v recovered-panics,
//	                       uv flow count, then flow chunks (snapFlowChunk
//	                         records each): uv byte length + records
//	  tag 4  telemetry:    telemetry.Snapshot as JSON
//	  tag 5  request-header table:  uv count, per block uv len + bytes
//	  tag 6  response-header table: uv count, per block uv len + bytes
//	  tag 7  shard manifest: ShardManifest as JSON (fleet shard datasets
//	         only)
//	  tag 8  span trace:     telemetry.Trace as JSON
//	  tag 9  checkpoint:     Checkpoint metadata as JSON (checkpoint files
//	         only — see checkpoint.go; one tag-3 run section follows per
//	         cell; the dataset loader ignores it)
//	  tag 10 end marker:     empty payload, always the last section; its
//	         absence tells the loader the file was cut at a section
//	         boundary (mid-section cuts fail the section framing itself)
//
// Section order: the lead JSON section (a shard manifest or checkpoint
// metadata, so tooling reads a file's identity from its first section),
// the tables 1, 2, 5 and 6, the runs, the trailing JSON sections
// (telemetry, then trace), the end marker. Flow records are framed in
// length-prefixed chunks so the loader can decode chunks concurrently —
// records themselves are variable-length, and without the frame a reader
// could not split the stream without scanning every varint serially.
//
// Unknown tags are skipped on read — the length prefix makes every section
// self-delimiting, so the format can grow without breaking old readers.
// String and blob IDs are first-occurrence dense indices, so a snapshot of
// a given dataset is byte-deterministic.
//
// Flow record:
//
//	flags byte: bit0 HTTPS, bit1 URL stored decomposed, bit2 time non-zero,
//	            bit3 time outside UnixNano's range
//	v  id
//	time (only when flags bit2): v unix nanoseconds, or with bit3 v unix
//	     seconds and uv nanoseconds
//	uv method string ID
//	URL: decomposed (uv scheme, host, path, rawquery IDs) when bit1,
//	     else uv full-URL string ID
//	uv request-header table ID
//	uv request-body blob ref (0 = none, else blob ID + 1)
//	v  status
//	uv response-header table ID
//	v  response size
//	uv response-body blob ref
//	uv channel ID, uv channel-ID ID
//
// Header blocks live in two deduplicated tables (request / response); a
// block is "uv count, per entry uv name ID + uv joined-value ID", and
// response blocks append "uv count + uv value IDs" for Set-Cookie, which
// the flattened form carries separately exactly like the JSON format
// (multi-values joined with "\n"). Dataset header shapes have tiny
// cardinality next to flow counts, so the table turns per-flow header
// reconstruction into one index lookup at load time. A flow's URL is
// stored decomposed only when reassembling scheme://host/path?query is
// provably identical to re-parsing the URL's string form — so a snapshot
// load is indistinguishable from a JSON load, field for field, which
// TestSnapshotRoundTrip enforces.

const (
	snapshotMagic0 = 'H'
	snapshotMagic1 = 'B'
	snapshotMagic  = "HBTV"
	snapshotVer    = 1

	secStrings    = 1
	secBlobs      = 2
	secRun        = 3
	secTelemetry  = 4
	secReqHdrs    = 5
	secRespHdrs   = 6
	secShard      = 7
	secTrace      = 8
	secCheckpoint = 9
	secEnd        = 10

	flowFlagHTTPS   = 1 << 0
	flowFlagFastURL = 1 << 1
	flowFlagHasTime = 1 << 2
	// flowFlagWideTime marks a time outside UnixNano's range, stored in
	// snapWriter.wideTime's form.
	flowFlagWideTime = 1 << 3

	// snapFlowChunk is how many flow records one length-prefixed chunk
	// holds — the unit of parallel decoding.
	snapFlowChunk = 2048
)

// sniffReader is the buffered reader Load uses to peek at magic bytes.
type sniffReader = bufio.Reader

func newSniffReader(r io.Reader) *sniffReader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 1<<16)
}

// snapWriter accumulates the snapshot payload.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *snapWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *snapWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *snapWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// snapReader decodes a snapshot payload from an in-memory byte slice,
// capturing the first error.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: snapshot: "+format, args...)
	}
}

func (r *snapReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail("truncated blob at offset %d", r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *snapReader) str(tab []string) string {
	id := r.uvarint()
	if r.err != nil {
		return ""
	}
	if id >= uint64(len(tab)) {
		r.fail("string id %d out of range", id)
		return ""
	}
	return tab[id]
}

// blobTable deduplicates byte blobs (request/response bodies) at save time.
type blobTable struct {
	ids   map[string]uint64
	blobs [][]byte
}

func newBlobTable() *blobTable {
	return &blobTable{ids: make(map[string]uint64, 256)}
}

// ref returns the blob reference for b: 0 for none, blob ID + 1 otherwise.
func (t *blobTable) ref(b []byte) uint64 {
	if len(b) == 0 {
		return 0
	}
	if id, ok := t.ids[string(b)]; ok {
		return id + 1
	}
	id := uint64(len(t.blobs))
	t.ids[string(b)] = id
	t.blobs = append(t.blobs, b)
	return id + 1
}

// headerTable deduplicates encoded header blocks at save time, for one role
// (request or response). Blocks are keyed (and stored) by their exact
// bytes, so identical headers collapse to one dense ID no matter which flow
// carried them. byMap records the ID of every map already encoded, by map
// identity: recorded and loaded datasets share one read-only map per
// block, so a shared map is flattened, sorted and string-interned once
// rather than once per flow. Each role needs its own record, since a
// response block also carries the Set-Cookie list.
type headerTable struct {
	response bool
	ids      map[string]uint64
	blocks   []string
	byMap    map[uintptr]uint64
}

func newHeaderTable(response bool) *headerTable {
	return &headerTable{
		response: response,
		ids:      make(map[string]uint64, 64),
		byMap:    make(map[uintptr]uint64, 64),
	}
}

// ref returns the dense ID of h's block, encoding h only when this map has
// not been seen before. An encoded block is copied on first sight (the
// scratch buffer is reused).
func (t *headerTable) ref(h http.Header, tab *intern.Strings, scratch *flowSnapScratch) uint64 {
	m := reflect.ValueOf(h).Pointer()
	if id, ok := t.byMap[m]; ok {
		return id
	}
	scratch.hw.buf = scratch.hw.buf[:0]
	encodeSnapHeader(&scratch.hw, h, t.response, tab, scratch)
	id, ok := t.ids[string(scratch.hw.buf)]
	if !ok {
		id = uint64(len(t.blocks))
		block := string(scratch.hw.buf)
		t.ids[block] = id
		t.blocks = append(t.blocks, block)
	}
	t.byMap[m] = id
	return id
}

// jsonSection is a container section whose payload is a JSON value the
// container codec carries without interpreting it: the shard manifest,
// the telemetry snapshot, the span trace, or checkpoint metadata.
type jsonSection struct {
	tag byte
	v   any
}

// writeContainer is the one snapshot writer. It emits magic and version,
// the lead sections, the string, blob and header tables, one run section
// per run, the trailing sections, and the end marker. The bytes are a
// deterministic function of its arguments. Dataset snapshots, checkpoints
// and Digest all go through it.
func writeContainer(w io.Writer, lead []jsonSection, runs []*RunData, trail []jsonSection) error {
	tab := intern.NewStrings(1024)
	tab.Intern("") // ID 0 is the empty string
	blobs := newBlobTable()
	scratch := flowSnapScratch{reqTab: newHeaderTable(false), respTab: newHeaderTable(true)}
	// The run sections fill the tables, which precede them in the file, so
	// they are encoded into memory first.
	runSecs := make([][]byte, 0, len(runs))
	for _, run := range runs {
		sec, err := encodeRunSnapshot(run, tab, blobs, &scratch)
		if err != nil {
			return err
		}
		runSecs = append(runSecs, sec)
	}

	// A bufio.Writer keeps its first write error and returns it from every
	// later call, so only the marshals and the final Flush are checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVer)
	if err := writeJSONSections(bw, lead); err != nil {
		return err
	}
	var sw snapWriter
	writeTable(bw, &sw, secStrings, tab.All())
	writeTable(bw, &sw, secBlobs, blobs.blobs)
	writeTable(bw, &sw, secReqHdrs, scratch.reqTab.blocks)
	writeTable(bw, &sw, secRespHdrs, scratch.respTab.blocks)
	for _, sec := range runSecs {
		writeSection(bw, secRun, sec)
	}
	if err := writeJSONSections(bw, trail); err != nil {
		return err
	}
	// The end marker makes truncation at a section boundary detectable —
	// without it a file cut between sections loads "cleanly" with runs
	// silently missing.
	writeSection(bw, secEnd, nil)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// writeTable writes a table section: uv count, then per entry uv length
// and bytes.
func writeTable[T string | []byte](bw *bufio.Writer, sw *snapWriter, tag byte, entries []T) {
	sw.buf = sw.buf[:0]
	sw.uvarint(uint64(len(entries)))
	for _, e := range entries {
		sw.uvarint(uint64(len(e)))
		sw.buf = append(sw.buf, e...)
	}
	writeSection(bw, tag, sw.buf)
}

// writeJSONSections marshals each section and writes it, in order.
func writeJSONSections(bw *bufio.Writer, secs []jsonSection) error {
	for _, s := range secs {
		raw, err := json.Marshal(s.v)
		if err != nil {
			return fmt.Errorf("store: snapshot: marshal section %d: %w", s.tag, err)
		}
		writeSection(bw, s.tag, raw)
	}
	return nil
}

func writeSection(bw *bufio.Writer, tag byte, payload []byte) {
	bw.WriteByte(tag)
	var hdr [binary.MaxVarintLen64]byte
	bw.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(payload)))])
	bw.Write(payload)
}

// saveSnapshot writes the dataset in the binary snapshot format. The shard
// manifest leads so fleet tooling can identify a shard file from its first
// section; telemetry and the span trace trail the runs.
func (d *Dataset) saveSnapshot(w io.Writer) error {
	var lead, trail []jsonSection
	if d.Shard != nil {
		lead = append(lead, jsonSection{secShard, d.Shard})
	}
	if d.Telemetry != nil {
		trail = append(trail, jsonSection{secTelemetry, d.Telemetry})
	}
	if d.Trace != nil {
		trail = append(trail, jsonSection{secTrace, d.Trace})
	}
	return writeContainer(w, lead, d.Runs, trail)
}

// Digest returns the dataset's identity: the hex SHA-256 of the snapshot
// container holding its runs and nothing else, byte for byte what
// Save(w, &Dataset{Runs: d.Runs}, FormatSnapshot) writes. Two datasets
// with equal digests are measurement-identical and therefore
// analysis-identical; every worker-count, fleet, fault and kill/resume
// parity proof compares digests.
//
// Telemetry, Shard and Trace are left out: they describe the engine, the
// fleet partition and where virtual time went, not the measurement, so
// enabling observability or merging a fleet never changes the digest.
func (d *Dataset) Digest() (string, error) {
	h := sha256.New()
	if err := writeContainer(h, nil, d.Runs, nil); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// flowSnapScratch is the per-save reusable state for flow encoding.
type flowSnapScratch struct {
	fields  []headerField
	hw      snapWriter
	reqTab  *headerTable
	respTab *headerTable
}

// str writes the string's table reference, interning it on first sight.
func (w *snapWriter) str(tab *intern.Strings, s string) {
	w.uvarint(uint64(tab.Intern(s)))
}

// time writes a presence byte and the time: 0 for the zero time, 1 and
// the unix nanoseconds when UnixNano holds the time exactly, else 2 and
// the wide form (a far-future cookie expiry, say).
func (w *snapWriter) time(t time.Time) {
	switch {
	case t.IsZero():
		w.byte(0)
	case fitsUnixNano(t):
		w.byte(1)
		w.varint(t.UnixNano())
	default:
		w.byte(2)
		w.wideTime(t)
	}
}

// wideTime writes v unix seconds and uv nanoseconds within the second.
func (w *snapWriter) wideTime(t time.Time) {
	w.varint(t.Unix())
	w.uvarint(uint64(t.Nanosecond()))
}

// fitsUnixNano reports whether t.UnixNano is exact, which holds from 1678
// through 2262; outside that range it overflows int64.
func fitsUnixNano(t time.Time) bool {
	return time.Unix(0, t.UnixNano()).Equal(t)
}

// encodeRunSnapshot encodes one run section: binary metadata over the
// string table, then the binary flow records.
func encodeRunSnapshot(run *RunData, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) ([]byte, error) {
	var w snapWriter
	w.str(tab, string(run.Name))
	w.time(run.Date)
	// Channels passes through nil-vs-empty verbatim in the JSON format, so
	// the count is shifted by one to keep the distinction: 0 = nil.
	if run.Channels == nil {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(len(run.Channels)) + 1)
		for i := range run.Channels {
			c := &run.Channels[i]
			w.str(tab, c.Name)
			w.str(tab, c.ID)
			w.str(tab, c.Satellite)
			w.str(tab, c.Language)
			w.uvarint(uint64(len(c.Categories)))
			for _, cat := range c.Categories {
				w.str(tab, string(cat))
			}
			w.str(tab, c.Show)
			w.str(tab, c.Genre)
		}
	}
	w.uvarint(uint64(len(run.Cookies)))
	for i := range run.Cookies {
		c := &run.Cookies[i]
		w.str(tab, c.Name)
		w.str(tab, c.Value)
		w.str(tab, c.Domain)
		w.str(tab, c.Path)
		w.time(c.Expires)
		w.time(c.Created)
		if c.HostOnly {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, c.SetBy)
	}
	w.uvarint(uint64(len(run.Storage)))
	for i := range run.Storage {
		s := &run.Storage[i]
		w.str(tab, s.Origin)
		w.str(tab, s.Key)
		w.str(tab, s.Value)
	}
	w.uvarint(uint64(len(run.Screenshots)))
	for i := range run.Screenshots {
		s := &run.Screenshots[i]
		w.time(s.Time)
		w.str(tab, s.Channel)
		w.str(tab, s.ChannelID)
		if s.HasSignal {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, s.Show)
		if s.Overlay == nil {
			w.uvarint(0)
		} else {
			// Overlays repeat from a small set of consent/app specs, so
			// their JSON form interns well — and the loader parses each
			// distinct overlay once.
			raw, err := json.Marshal(s.Overlay)
			if err != nil {
				return nil, fmt.Errorf("store: snapshot: marshal overlay: %w", err)
			}
			w.uvarint(uint64(tab.InternBytes(raw)) + 1)
		}
	}
	w.uvarint(uint64(len(run.Logs)))
	for i := range run.Logs {
		l := &run.Logs[i]
		w.time(l.Time)
		w.str(tab, string(l.Kind))
		w.str(tab, l.Detail)
	}
	w.uvarint(uint64(len(run.Outcomes)))
	for i := range run.Outcomes {
		o := &run.Outcomes[i]
		w.str(tab, o.Channel)
		w.str(tab, string(o.Status))
		w.varint(int64(o.Attempts))
		w.str(tab, o.Error)
	}
	w.varint(int64(run.RecoveredPanics))
	w.uvarint(uint64(len(run.Flows)))
	var cw snapWriter
	for lo := 0; lo < len(run.Flows); lo += snapFlowChunk {
		hi := min(lo+snapFlowChunk, len(run.Flows))
		cw.buf = cw.buf[:0]
		for _, f := range run.Flows[lo:hi] {
			encodeFlowSnapshot(&cw, f, tab, blobs, scratch)
		}
		w.bytes(cw.buf)
	}
	return w.buf, nil
}

func encodeFlowSnapshot(w *snapWriter, f *proxy.Flow, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) {
	// The URL is stored decomposed when reassembling its four components
	// is provably identical to re-parsing its string form, so the loader
	// can skip url.Parse. plainURL settles that without the round trip for
	// nearly every recorded flow.
	fast := url.URL{Scheme: f.URL.Scheme, Host: f.URL.Host, Path: f.URL.Path, RawQuery: f.URL.RawQuery}
	fastOK := *f.URL == fast && plainURL(&fast)
	var urlStr string
	if !fastOK {
		urlStr = f.URL.String()
		reparsed, err := url.Parse(urlStr)
		fastOK = err == nil && *reparsed == fast
	}

	var flags byte
	if f.HTTPS {
		flags |= flowFlagHTTPS
	}
	if fastOK {
		flags |= flowFlagFastURL
	}
	if !f.Time.IsZero() {
		flags |= flowFlagHasTime
		if !fitsUnixNano(f.Time) {
			flags |= flowFlagWideTime
		}
	}
	w.byte(flags)
	w.varint(f.ID)
	switch {
	case flags&flowFlagWideTime != 0:
		w.wideTime(f.Time)
	case flags&flowFlagHasTime != 0:
		w.varint(f.Time.UnixNano())
	}
	w.uvarint(uint64(tab.Intern(f.Method)))
	if fastOK {
		w.uvarint(uint64(tab.Intern(f.URL.Scheme)))
		w.uvarint(uint64(tab.Intern(f.URL.Host)))
		w.uvarint(uint64(tab.Intern(f.URL.Path)))
		w.uvarint(uint64(tab.Intern(f.URL.RawQuery)))
	} else {
		w.uvarint(uint64(tab.Intern(urlStr)))
	}
	w.uvarint(scratch.reqTab.ref(f.RequestHeaders, tab, scratch))
	w.uvarint(blobs.ref(f.RequestBody))
	w.varint(int64(f.StatusCode))
	w.uvarint(scratch.respTab.ref(f.ResponseHeaders, tab, scratch))
	w.varint(f.ResponseSize)
	w.uvarint(blobs.ref(f.ResponseBody))
	w.uvarint(uint64(tab.Intern(f.Channel)))
	w.uvarint(uint64(tab.Intern(f.ChannelID)))
}

// plainURL reports whether u is an http(s) URL with a plain host (letters,
// digits and "-._~", optionally a numeric port), an empty or absolute
// path, and a query free of '#' and control bytes. Such a URL's four
// components survive String and Parse unchanged. Only those four fields
// are looked at.
func plainURL(u *url.URL) bool {
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" ||
		u.Path != "" && u.Path[0] != '/' {
		return false
	}
	for i := 0; i < len(u.Host); i++ {
		c := u.Host[i]
		if c == ':' {
			return strings.Trim(u.Host[i+1:], "0123456789") == ""
		}
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '.' || c == '_' || c == '~') {
			return false
		}
	}
	for i := 0; i < len(u.RawQuery); i++ {
		if c := u.RawQuery[i]; c == '#' || c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// headerField is one header entry of a block being encoded.
type headerField struct {
	name   string
	values []string
}

// encodeSnapHeader writes h in the flattened form the JSON format uses:
// entries in sorted name order, so the bytes are deterministic, with
// multiple values joined by "\n". A response block carries Set-Cookie not
// among the entries but as a trailing list.
func encodeSnapHeader(w *snapWriter, h http.Header, response bool, tab *intern.Strings, scratch *flowSnapScratch) {
	fields := scratch.fields[:0]
	for name, values := range h {
		if !response || name != "Set-Cookie" {
			fields = append(fields, headerField{name, values})
		}
	}
	slices.SortFunc(fields, func(a, b headerField) int { return strings.Compare(a.name, b.name) })
	scratch.fields = fields
	w.uvarint(uint64(len(fields)))
	for _, f := range fields {
		w.str(tab, f.name)
		if len(f.values) == 1 {
			w.str(tab, f.values[0])
		} else {
			w.str(tab, strings.Join(f.values, "\n"))
		}
	}
	if response {
		setCookies := h.Values("Set-Cookie")
		w.uvarint(uint64(len(setCookies)))
		for _, sc := range setCookies {
			w.str(tab, sc)
		}
	}
}

// readAllSized reads the rest of r into memory. Seekable inputs (files,
// bytes.Reader) reveal their remaining length up front, so the buffer is
// allocated once instead of grown through io.ReadAll's doubling copies —
// at paper scale that alone is a triple-digit-millisecond difference.
func readAllSized(r io.Reader) ([]byte, error) {
	if s, ok := r.(io.Seeker); ok {
		cur, errCur := s.Seek(0, io.SeekCurrent)
		end, errEnd := s.Seek(0, io.SeekEnd)
		if errCur == nil && errEnd == nil && end >= cur {
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
			buf := make([]byte, end-cur)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			return buf, nil
		}
	}
	return io.ReadAll(r)
}

// loadSnapshot reads a dataset written in FormatSnapshot, optionally
// canonicalizing bodies and header blocks through a shared dedup table
// (see LoadDedup). A checkpoint container loads as the dataset of its cell
// runs: the checkpoint metadata is not a dataset field and stays unread.
func loadSnapshot(r io.Reader, dd *Dedup) (*Dataset, error) {
	raw, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	runs, other, err := readContainer(raw, dd)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Runs: runs}
	for _, s := range []jsonSection{{secShard, &d.Shard}, {secTelemetry, &d.Telemetry}, {secTrace, &d.Trace}} {
		if payload, ok := other[s.tag]; ok {
			if err := json.Unmarshal(payload, s.v); err != nil {
				return nil, fmt.Errorf("store: snapshot: section %d: %w", s.tag, err)
			}
		}
	}
	return d, nil
}

// readContainer is the one snapshot reader. It decodes the container in
// raw and returns its runs in section order plus, by tag, the payload of
// every section it does not interpret (a repeated tag keeps its last
// payload) for the caller to decode. dd, when set, canonicalizes blobs and
// header blocks at table-decode time — once per distinct entry, not once
// per flow — so the parallel flow decode is untouched.
func readContainer(raw []byte, dd *Dedup) ([]*RunData, map[byte][]byte, error) {
	if len(raw) < len(snapshotMagic)+1 || string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, nil, fmt.Errorf("store: snapshot: bad magic")
	}
	if ver := raw[len(snapshotMagic)]; ver != snapshotVer {
		return nil, nil, fmt.Errorf("store: unsupported snapshot version %d", ver)
	}
	sr := &snapReader{b: raw, off: len(snapshotMagic) + 1}
	dec := &snapDecoder{
		overlays: make(map[uint64]*appmodel.OverlaySpec, 16),
		dd:       dd,
	}
	var runs []*RunData
	other := make(map[byte][]byte)
	sawEnd := false
	for sr.err == nil && sr.off < len(sr.b) {
		tag := sr.byte()
		payload := sr.bytes()
		if sr.err != nil {
			break
		}
		ps := &snapReader{b: payload}
		switch tag {
		case secStrings:
			n := ps.count()
			dec.strs = make([]string, 0, n)
			for i := uint64(0); i < n && ps.err == nil; i++ {
				dec.strs = append(dec.strs, string(ps.bytes()))
			}
		case secBlobs:
			n := ps.count()
			dec.blobs = make([][]byte, 0, n)
			for i := uint64(0); i < n && ps.err == nil; i++ {
				b := ps.bytes()
				// Blobs alias the file buffer; bodies are read-only
				// downstream, so no copy is needed.
				if dd != nil {
					b = dd.Blob(b)
				}
				dec.blobs = append(dec.blobs, b)
			}
		case secReqHdrs:
			dec.reqList = dec.decodeHeaderTable(ps, false)
		case secRespHdrs:
			dec.respList = dec.decodeHeaderTable(ps, true)
		case secRun:
			run, err := dec.decodeRun(ps)
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, run)
		case secEnd:
			sawEnd = true
		default:
			// JSON sections, and unknown sections from a newer writer.
			other[tag] = payload
		}
		if ps.err != nil {
			return nil, nil, ps.err
		}
	}
	if sr.err != nil {
		return nil, nil, sr.err
	}
	if !sawEnd {
		return nil, nil, fmt.Errorf("store: snapshot: truncated: missing end-of-snapshot marker (file cut at a section boundary?)")
	}
	return runs, other, nil
}

// snapDecoder carries the per-load decode state. Each distinct header block
// in the two tables is built into an http.Header exactly once; flows then
// reference headers by index, so many flows share one map. Loaded datasets
// are read-only downstream, which makes that sharing safe.
type snapDecoder struct {
	strs     []string
	blobs    [][]byte
	reqList  []http.Header
	respList []http.Header
	// overlays caches parsed overlay specs by overlay-JSON string ID.
	overlays map[uint64]*appmodel.OverlaySpec
	// dd, when set, canonicalizes decoded blobs and header blocks across
	// loads sharing the table (fleet merge).
	dd *Dedup
}

// decodeHeaderTable builds every block of a header-table section.
func (d *snapDecoder) decodeHeaderTable(sr *snapReader, withSetCookie bool) []http.Header {
	n := sr.count()
	list := make([]http.Header, 0, n)
	for i := uint64(0); i < n && sr.err == nil; i++ {
		block := sr.bytes()
		if sr.err != nil {
			break
		}
		br := &snapReader{b: block}
		h := d.buildHeader(br, withSetCookie)
		if br.err != nil {
			sr.err = br.err
			break
		}
		if d.dd != nil {
			h = d.dd.Header(h)
		}
		list = append(list, h)
	}
	return list
}

// overlay parses the interned overlay-JSON string with the given table ID,
// caching the spec so each distinct overlay is parsed once per load.
func (d *snapDecoder) overlay(id uint64) (*appmodel.OverlaySpec, error) {
	if id >= uint64(len(d.strs)) {
		return nil, fmt.Errorf("store: snapshot: overlay id %d out of range", id)
	}
	if ov, ok := d.overlays[id]; ok {
		return ov, nil
	}
	var ov *appmodel.OverlaySpec
	if err := json.Unmarshal([]byte(d.strs[id]), &ov); err != nil {
		return nil, fmt.Errorf("store: snapshot: overlay: %w", err)
	}
	d.overlays[id] = ov
	return ov, nil
}

// time reads what snapWriter.time wrote. The UTC() normalization matches
// what parsing the JSON format's "Z"-suffixed timestamps yields, so both
// loaders produce deep-equal times.
func (r *snapReader) time() time.Time {
	switch r.byte() {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(0, r.varint()).UTC()
	case 2:
		return r.wideTime()
	}
	r.fail("bad time presence byte at offset %d", r.off-1)
	return time.Time{}
}

func (r *snapReader) wideTime() time.Time {
	sec, ns := r.varint(), r.uvarint()
	if ns >= uint64(time.Second) {
		r.fail("nanoseconds %d out of range at offset %d", ns, r.off)
		return time.Time{}
	}
	return time.Unix(sec, int64(ns)).UTC()
}

// count reads a length prefix and fails on values no well-formed payload
// can hold (each counted record needs at least one byte).
func (r *snapReader) count() uint64 {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail("implausible count %d at offset %d", n, r.off)
		return 0
	}
	return n
}

func (d *snapDecoder) decodeRun(sr *snapReader) (*RunData, error) {
	run := &RunData{}
	run.Name = RunName(sr.str(d.strs))
	run.Date = sr.time()
	if nch := sr.count(); nch > 0 {
		run.Channels = make([]ChannelInfo, nch-1)
		for i := range run.Channels {
			c := &run.Channels[i]
			c.Name = sr.str(d.strs)
			c.ID = sr.str(d.strs)
			c.Satellite = sr.str(d.strs)
			c.Language = sr.str(d.strs)
			if ncat := sr.count(); ncat > 0 {
				c.Categories = make([]dvb.ServiceCategory, ncat)
				for j := range c.Categories {
					c.Categories[j] = dvb.ServiceCategory(sr.str(d.strs))
				}
			}
			c.Show = sr.str(d.strs)
			c.Genre = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Cookies = make([]webos.StoredCookie, n)
		for i := range run.Cookies {
			c := &run.Cookies[i]
			c.Name = sr.str(d.strs)
			c.Value = sr.str(d.strs)
			c.Domain = sr.str(d.strs)
			c.Path = sr.str(d.strs)
			c.Expires = sr.time()
			c.Created = sr.time()
			c.HostOnly = sr.byte() == 1
			c.SetBy = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Storage = make([]webos.StorageItem, n)
		for i := range run.Storage {
			s := &run.Storage[i]
			s.Origin = sr.str(d.strs)
			s.Key = sr.str(d.strs)
			s.Value = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Screenshots = make([]webos.Screenshot, n)
		for i := range run.Screenshots {
			s := &run.Screenshots[i]
			s.Time = sr.time()
			s.Channel = sr.str(d.strs)
			s.ChannelID = sr.str(d.strs)
			s.HasSignal = sr.byte() == 1
			s.Show = sr.str(d.strs)
			if ref := sr.uvarint(); ref > 0 && sr.err == nil {
				ov, err := d.overlay(ref - 1)
				if err != nil {
					return nil, err
				}
				s.Overlay = ov
			}
		}
	}
	if n := sr.count(); n > 0 {
		run.Logs = make([]webos.LogEntry, n)
		for i := range run.Logs {
			l := &run.Logs[i]
			l.Time = sr.time()
			l.Kind = webos.LogKind(sr.str(d.strs))
			l.Detail = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Outcomes = make([]ChannelOutcome, n)
		for i := range run.Outcomes {
			o := &run.Outcomes[i]
			o.Channel = sr.str(d.strs)
			o.Status = OutcomeStatus(sr.str(d.strs))
			o.Attempts = int(sr.varint())
			o.Error = sr.str(d.strs)
		}
	}
	run.RecoveredPanics = int(sr.varint())
	if sr.err != nil {
		return nil, sr.err
	}
	nflows := sr.uvarint()
	if sr.err != nil {
		return nil, sr.err
	}
	if nflows > 0 {
		if nflows > uint64(len(sr.b)) {
			sr.fail("implausible flow count %d", nflows)
			return nil, sr.err
		}
		nchunks := int((nflows + snapFlowChunk - 1) / snapFlowChunk)
		chunks := make([][]byte, nchunks)
		for i := range chunks {
			chunks[i] = sr.bytes()
		}
		if sr.err != nil {
			return nil, sr.err
		}
		run.Flows = make([]*proxy.Flow, nflows)
		if err := d.decodeFlowChunks(run.Flows, chunks); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// decodeFlowChunks fills flows from the run's length-prefixed chunks,
// fanning the chunks out over GOMAXPROCS workers. Chunk i covers flows
// [i*snapFlowChunk, ...), so workers write disjoint slices; each chunk
// allocates its own flow and URL arenas, which parallelizes even the
// zeroing of the ~200 bytes/flow of output memory.
func (d *snapDecoder) decodeFlowChunks(flows []*proxy.Flow, chunks [][]byte) error {
	decodeOne := func(dec *snapDecoder, ci int) error {
		lo := ci * snapFlowChunk
		hi := min(lo+snapFlowChunk, len(flows))
		arena := make([]proxy.Flow, hi-lo)
		urls := make([]url.URL, hi-lo)
		cr := &snapReader{b: chunks[ci]}
		for i := range arena {
			dec.decodeFlow(cr, &arena[i], &urls[i])
			if cr.err != nil {
				return cr.err
			}
			flows[lo+i] = &arena[i]
		}
		if cr.off != len(cr.b) {
			return fmt.Errorf("store: snapshot: %d stray bytes after flow chunk %d", len(cr.b)-cr.off, ci)
		}
		return nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers <= 1 {
		for ci := range chunks {
			if err := decodeOne(d, ci); err != nil {
				return err
			}
		}
		return nil
	}

	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Flow decoding only reads the decoder's tables (strings,
			// blobs, built headers), so workers share d freely.
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(chunks) {
					return
				}
				if err := decodeOne(d, ci); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *snapDecoder) decodeFlow(sr *snapReader, f *proxy.Flow, uslot *url.URL) {
	flags := sr.byte()
	f.ID = sr.varint()
	switch {
	case flags&flowFlagWideTime != 0:
		f.Time = sr.wideTime()
	case flags&flowFlagHasTime != 0:
		f.Time = time.Unix(0, sr.varint()).UTC()
	}
	f.Method = sr.str(d.strs)
	if flags&flowFlagFastURL != 0 {
		uslot.Scheme = sr.str(d.strs)
		uslot.Host = sr.str(d.strs)
		uslot.Path = sr.str(d.strs)
		uslot.RawQuery = sr.str(d.strs)
		// The writer decomposes only URLs that re-parse to themselves;
		// anything else would not re-save to the same bytes.
		if !plainURL(uslot) {
			if r, err := url.Parse(uslot.String()); err != nil || *r != *uslot {
				sr.fail("flow url %q cannot be stored decomposed", uslot.String())
				return
			}
		}
	} else {
		u, err := url.Parse(sr.str(d.strs))
		if err != nil {
			sr.fail("flow url: %v", err)
			return
		}
		*uslot = *u
	}
	f.URL = uslot
	f.HTTPS = flags&flowFlagHTTPS != 0
	f.RequestHeaders = headerRef(sr, d.reqList)
	f.RequestBody = d.blob(sr)
	f.StatusCode = int(sr.varint())
	f.ResponseHeaders = headerRef(sr, d.respList)
	f.ResponseSize = sr.varint()
	f.ResponseBody = d.blob(sr)
	f.Channel = sr.str(d.strs)
	f.ChannelID = sr.str(d.strs)
	// Hostname() slices into the interned Host string, so the cached host
	// shares its backing exactly like the JSON loader's interned copy.
	f.CacheHost(f.URL.Hostname())
}

func (d *snapDecoder) blob(sr *snapReader) []byte {
	ref := sr.uvarint()
	if ref == 0 || sr.err != nil {
		return nil
	}
	if ref > uint64(len(d.blobs)) {
		sr.fail("blob ref %d out of range", ref)
		return nil
	}
	return d.blobs[ref-1]
}

// headerRef resolves a flow's header-table reference: one varint read and
// one index — the hot path a snapshot load spends most of its time on.
func headerRef(sr *snapReader, list []http.Header) http.Header {
	id := sr.uvarint()
	if sr.err != nil {
		return nil
	}
	if id >= uint64(len(list)) {
		sr.fail("header table id %d out of range", id)
		return nil
	}
	return list[id]
}

// buildHeader rebuilds a header from its flattened snapshot form, splitting
// multi-valued entries exactly like the JSON loader.
func (d *snapDecoder) buildHeader(sr *snapReader, withSetCookie bool) http.Header {
	n := sr.count()
	h := make(http.Header, n)
	for i := uint64(0); i < n && sr.err == nil; i++ {
		k := sr.str(d.strs)
		joined := sr.str(d.strs)
		if !strings.Contains(joined, "\n") {
			h[k] = []string{joined}
			continue
		}
		h[k] = strings.Split(joined, "\n")
	}
	if withSetCookie {
		if nsc := sr.count(); nsc > 0 {
			scs := make([]string, 0, nsc)
			for i := uint64(0); i < nsc; i++ {
				scs = append(scs, sr.str(d.strs))
			}
			h["Set-Cookie"] = scs
		}
	}
	return h
}
