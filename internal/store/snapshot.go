package store

import (
	"bufio"
	"context"
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
// The container has one encoder, encodeRuns, which encodes runs on every
// core into the tables and run sections of a snapEncoding, and one
// reader, readContainer. Dataset snapshots (saveSnapshot, loadSnapshot),
// checkpoints (WriteCheckpoint, decodeCheckpoint in checkpoint.go), Digest
// and SaveDigest are thin callers that differ only in the JSON sections
// they put around the runs.
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
	id := r.strID(tab)
	if r.err != nil {
		return ""
	}
	return tab[id]
}

// strID reads a string ID and checks it against tab; after a failure the
// ID is meaningless.
func (r *snapReader) strID(tab []string) int {
	id := r.uvarint()
	if r.err == nil && id >= uint64(len(tab)) {
		r.fail("string id %d out of range", id)
	}
	return int(id)
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

// blockTable deduplicates encoded header blocks of one role (request or
// response) by their exact bytes, so identical headers collapse to one
// dense ID, in first-occurrence order, no matter which flow carried them.
type blockTable struct {
	ids    map[string]uint64
	blocks []string
}

func newBlockTable() blockTable {
	return blockTable{ids: make(map[string]uint64, 64)}
}

// ref returns the dense ID of the encoded block, copying it on first sight
// (callers reuse their scratch buffer).
func (t *blockTable) ref(block []byte) uint64 {
	if id, ok := t.ids[string(block)]; ok {
		return id
	}
	id := uint64(len(t.blocks))
	s := string(block)
	t.ids[s] = id
	t.blocks = append(t.blocks, s)
	return id
}

// headerTable encodes header maps into a blockTable, for one role. byMap
// records the ID of every map already encoded, by map identity: recorded
// and loaded datasets share one read-only map per block, so a shared map
// is flattened, sorted and string-interned once rather than once per
// flow. Each role needs its own record, since a response block also
// carries the Set-Cookie list. last is the map ref resolved last and
// lastID its ID: consecutive flows mostly share a map, and then skip the
// byMap lookup.
type headerTable struct {
	response bool
	blockTable
	byMap  map[uintptr]uint64
	last   uintptr
	lastID uint64
}

func newHeaderTable(response bool) *headerTable {
	return &headerTable{
		response:   response,
		blockTable: newBlockTable(),
		byMap:      make(map[uintptr]uint64, 64),
	}
}

// ref returns the dense ID of h's block, encoding h only when this map has
// not been seen before.
func (t *headerTable) ref(h http.Header, tab *intern.Strings, scratch *flowSnapScratch) uint64 {
	m := reflect.ValueOf(h).Pointer()
	if m == t.last && m != 0 { // 0 is a nil map's, and the zero last's
		return t.lastID
	}
	id, ok := t.byMap[m]
	if !ok {
		scratch.hw.buf = scratch.hw.buf[:0]
		encodeSnapHeader(&scratch.hw, h, t.response, tab, scratch)
		id = t.blockTable.ref(scratch.hw.buf)
		t.byMap[m] = id
	}
	t.last, t.lastID = m, id
	return id
}

// jsonSection is a container section whose payload is a JSON value the
// container codec carries without interpreting it: the shard manifest,
// the telemetry snapshot, the span trace, or checkpoint metadata.
type jsonSection struct {
	tag byte
	v   any
}

// writeContainer writes one container: magic and version, the lead
// sections, the string, blob and header tables, one run section per run,
// the trailing sections, and the end marker. The bytes are a
// deterministic function of its arguments.
func writeContainer(w io.Writer, lead []jsonSection, runs []*RunData, trail []jsonSection) error {
	e, err := encodeRuns(runs)
	if err != nil {
		return err
	}
	return e.write(w, lead, trail)
}

// snapEncoding is one encode of a run list: the string, blob and header
// tables and the run sections that reference them. The tables precede the
// runs in the file and the run sections fill them, so the sections are
// held in memory until the container is written. What an encoding writes
// depends only on the runs, so Digest, saveSnapshot, SaveDigest and
// WriteCheckpoint all write from one, and differ only in the JSON
// sections they put around the runs.
type snapEncoding struct {
	strs              *intern.Strings
	blobs             *blobTable
	reqHdrs, respHdrs blockTable
	runs              [][]byte
	hw                snapWriter // phase 2's header re-encode scratch
}

// encodeRuns encodes runs, byte for byte what one serial pass over every
// run's metadata and flows writes (writeContainerSerial, the reference in
// the tests), on up to GOMAXPROCS cores. A run's flows go through three
// phases over chunks of snapFlowChunk flows:
//
//  1. In parallel, each chunk interns its strings, bodies and header maps
//     into chunk-local tables, in the serial pass's per-flow order, and
//     keeps each flow's local IDs. Alongside the first chunks, the run's
//     metadata is interned into the global tables, which no chunk
//     touches; so it precedes the run's flows there, as in the serial
//     pass.
//  2. Serially, the chunks' tables are absorbed into the global ones in
//     chunk order. An ID is fixed by its value's first occurrence and
//     chunk order is flow order, so every global ID is the serial pass's
//     (intern.Strings.Absorb's contract). A local header block is
//     re-encoded with global string IDs before it is deduplicated by its
//     bytes; a local body is deduplicated by its content.
//  3. In parallel, each chunk emits its flow records with global IDs.
//
// The phases take a run's chunks in waves of four per worker, so the
// working set beyond the finished sections is the run's records plus one
// wave's local tables and IDs.
func encodeRuns(runs []*RunData) (*snapEncoding, error) {
	e := &snapEncoding{
		strs:     intern.NewStrings(1024),
		blobs:    newBlobTable(),
		reqHdrs:  newBlockTable(),
		respHdrs: newBlockTable(),
		runs:     make([][]byte, 0, len(runs)),
	}
	e.strs.Intern("") // ID 0 is the empty string

	var scratch runScratch
	for _, run := range runs {
		sec, err := e.encodeRun(run, &scratch)
		if err != nil {
			return nil, err
		}
		e.runs = append(e.runs, sec)
	}
	return e, nil
}

// runScratch is what the runs of one encode reuse: a wave's chunk
// encoders, and each chunk's records.
type runScratch struct {
	wave    []*chunkEncoder
	records [][]byte
}

// encodeRun runs the three phases over one run and returns its section:
// the metadata, the flow count, and the length-prefixed chunks.
func (e *snapEncoding) encodeRun(run *RunData, scratch *runScratch) ([]byte, error) {
	flows := run.Flows
	flowsOf := func(ci int) []*proxy.Flow {
		lo := ci * snapFlowChunk
		return flows[lo:min(lo+snapFlowChunk, len(flows))]
	}
	n := (len(flows) + snapFlowChunk - 1) / snapFlowChunk
	ctx := context.Background() // Digest and Save take no context
	workers := runtime.GOMAXPROCS(0)
	if n <= 1 {
		workers = 1 // a lone chunk runs inline
	}
	step := 4 * workers // chunks per wave
	for len(scratch.wave) < min(step, n) {
		scratch.wave = append(scratch.wave, new(chunkEncoder))
	}
	for len(scratch.records) < n {
		scratch.records = append(scratch.records, nil)
	}
	records := scratch.records[:n]

	var meta snapWriter
	var metaErr error
	// The first wave's task 0 encodes the metadata, so a run without
	// flows has one wave too.
	for lo := 0; lo == 0 || lo < n; lo += step {
		wave := scratch.wave[:min(step, n-lo)]
		first := 0
		if lo == 0 {
			first = 1
		}
		parallelChunks(ctx, workers, first+len(wave), func(task int) {
			if task < first {
				metaErr = encodeRunMeta(&meta, run, e.strs)
			} else {
				wave[task-first].scan(flowsOf(lo + task - first))
			}
		})
		if metaErr != nil {
			return nil, metaErr
		}
		locals := make([]*intern.Strings, len(wave))
		for i, c := range wave {
			locals[i] = c.strs
		}
		for i, strIDs := range e.strs.Absorb(locals) {
			e.absorb(wave[i], strIDs)
		}
		parallelChunks(ctx, workers, len(wave), func(i int) {
			records[lo+i] = wave[i].emit(records[lo+i][:0], flowsOf(lo+i))
		})
	}

	size := len(meta.buf) + uvarintLen(uint64(len(flows)))
	for _, r := range records {
		size += uvarintLen(uint64(len(r))) + len(r)
	}
	sec := snapWriter{buf: make([]byte, 0, size)}
	sec.buf = append(sec.buf, meta.buf...)
	sec.uvarint(uint64(len(flows)))
	for _, r := range records {
		sec.bytes(r)
	}
	return sec.buf, nil
}

// absorb is phase 2 for one chunk, whose strings the global table has
// absorbed with the remap strIDs: it gives each of the chunk's bodies and
// header blocks its global ID.
func (e *snapEncoding) absorb(c *chunkEncoder, strIDs []int32) {
	c.strIDs = strIDs
	c.blobIDs = c.blobIDs[:0]
	for _, b := range c.blobs.blobs {
		c.blobIDs = append(c.blobIDs, e.blobs.ref(b))
	}
	c.reqIDs = e.absorbBlocks(c.reqIDs[:0], &e.reqHdrs, c.scratch.reqTab, strIDs)
	c.respIDs = e.absorbBlocks(c.respIDs[:0], &e.respHdrs, c.scratch.respTab, strIDs)
}

// absorbBlocks re-encodes each of a chunk's local header blocks with the
// global string IDs and appends its global block ID to ids.
func (e *snapEncoding) absorbBlocks(ids []uint64, global *blockTable, local *headerTable, strIDs []int32) []uint64 {
	for _, block := range local.blocks {
		e.hw.buf = remapBlock(e.hw.buf[:0], block, strIDs, local.response)
		ids = append(ids, global.ref(e.hw.buf))
	}
	return ids
}

// remapBlock appends block, an encoded header block (see encodeSnapHeader),
// with every string ID mapped through strIDs.
func remapBlock(dst []byte, block string, strIDs []int32, response bool) []byte {
	next := func() uint64 {
		v, n := uvarintString(block)
		block = block[n:]
		return v
	}
	list := func(ids uint64) {
		for range ids {
			dst = binary.AppendUvarint(dst, uint64(strIDs[next()]))
		}
	}
	n := next()
	dst = binary.AppendUvarint(dst, n)
	list(2 * n) // a name and a joined value per entry
	if response {
		n = next()
		dst = binary.AppendUvarint(dst, n)
		list(n) // the Set-Cookie values
	}
	return dst
}

// uvarintString decodes a uvarint from the front of s, which the writer
// itself encoded, and returns it with its length.
func uvarintString(s string) (uint64, int) {
	var v uint64
	for i := 0; i < len(s); i++ {
		b := s[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, i + 1
		}
	}
	return v, len(s)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// chunkEncoder is one flow chunk's share of an encode (see encodeRuns):
// its local tables and per-flow local IDs from phase 1 and its
// local-to-global remaps from phase 2. The same slot of the next wave
// reuses its buffers.
type chunkEncoder struct {
	strs    *intern.Strings
	blobs   *blobTable
	scratch flowSnapScratch // reqTab and respTab are the chunk's header tables
	refs    []flowRefs

	strIDs                   []int32
	blobIDs, reqIDs, respIDs []uint64
}

// flowRefs is one flow's flag byte and chunk-local table references.
type flowRefs struct {
	flags  byte
	method int32
	// url holds the scheme, host, path and query IDs with
	// flowFlagFastURL, else only url[0], the whole URL's.
	url                [4]int32
	reqHdr, respHdr    uint32
	reqBody, respBody  uint32 // blob refs: 0 = none, else local blob ID + 1
	channel, channelID int32
}

// scan is phase 1: it interns the chunk's flows into fresh chunk-local
// tables in the order the serial pass interns them (method, URL, request
// header strings, response header strings, channel, channel ID; request
// body before response body), and records each flow's local IDs.
//
// Consecutive flows mostly repeat each other's strings, so each per-flow
// string field remembers the last value it interned and its ID, and a flow
// that repeats the value takes the ID without hashing the string: the value
// is in the table already, so skipping its lookup moves no ID.
func (c *chunkEncoder) scan(flows []*proxy.Flow) {
	c.strs = intern.NewStrings(256)
	c.blobs = &blobTable{ids: make(map[string]uint64, 16)}
	c.scratch.reqTab, c.scratch.respTab = newHeaderTable(false), newHeaderTable(true)
	c.refs = slices.Grow(c.refs[:0], len(flows))[:len(flows)]
	tab := c.strs
	var method, scheme, host, path, query, channel, channelID lastString
	// plain is the last four URL parts plainURL judged and plainOK its
	// verdict. The zero URL is not plain, so the zero values agree.
	var plain url.URL
	var plainOK bool
	for i, f := range flows {
		// The URL is stored decomposed when reassembling its four
		// components is provably identical to re-parsing its string form,
		// so the loader can skip url.Parse. plainURL settles that without
		// the round trip for nearly every recorded flow; it depends on the
		// four parts alone, so a flow repeating the last parts judged takes
		// the verdict, but only once its other fields are known to be zero.
		fast := url.URL{Scheme: f.URL.Scheme, Host: f.URL.Host, Path: f.URL.Path, RawQuery: f.URL.RawQuery}
		fastOK := *f.URL == fast
		if fastOK && fast != plain {
			plain, plainOK = fast, plainURL(&fast)
		}
		fastOK = fastOK && plainOK
		var urlStr string
		if !fastOK {
			urlStr = f.URL.String()
			reparsed, err := url.Parse(urlStr)
			fastOK = err == nil && *reparsed == fast
		}

		r := &c.refs[i]
		*r = flowRefs{}
		if f.HTTPS {
			r.flags |= flowFlagHTTPS
		}
		if !f.Time.IsZero() {
			r.flags |= flowFlagHasTime
			if !fitsUnixNano(f.Time) {
				r.flags |= flowFlagWideTime
			}
		}
		r.method = method.intern(tab, f.Method)
		if fastOK {
			r.flags |= flowFlagFastURL
			r.url = [4]int32{scheme.intern(tab, f.URL.Scheme), host.intern(tab, f.URL.Host), path.intern(tab, f.URL.Path), query.intern(tab, f.URL.RawQuery)}
		} else {
			r.url[0] = tab.Intern(urlStr)
		}
		r.reqHdr = uint32(c.scratch.reqTab.ref(f.RequestHeaders, tab, &c.scratch))
		r.reqBody = uint32(c.blobs.ref(f.RequestBody))
		r.respHdr = uint32(c.scratch.respTab.ref(f.ResponseHeaders, tab, &c.scratch))
		r.respBody = uint32(c.blobs.ref(f.ResponseBody))
		r.channel = channel.intern(tab, f.Channel)
		r.channelID = channelID.intern(tab, f.ChannelID)
	}
}

// lastString is one per-flow string field's last interned value in a chunk
// and its local ID.
type lastString struct {
	s   string
	id  int32
	set bool
}

// intern returns s's ID in tab, looking s up only when it differs from the
// field's last value. String == returns at once when both strings share a
// pointer, as consecutive flows' methods and channels and the parts of a
// beacon URL the TV sends again do.
func (l *lastString) intern(tab *intern.Strings, s string) int32 {
	if !l.set || s != l.s {
		l.s, l.id, l.set = s, tab.Intern(s), true
	}
	return l.id
}

// maxFlowRecord bounds a flow record's length: the flag byte, five
// 64-bit varints (ID, two time fields, status, response size) and eleven
// table references below 2^32.
const maxFlowRecord = 1 + 5*binary.MaxVarintLen64 + 11*binary.MaxVarintLen32

// emit is phase 3: it appends the chunk's flow records with global IDs to
// buf, each into room reserved for the longest record.
func (c *chunkEncoder) emit(buf []byte, flows []*proxy.Flow) []byte {
	for i, f := range flows {
		r := &c.refs[i]
		n := len(buf)
		buf = slices.Grow(buf, maxFlowRecord)[:n+maxFlowRecord]
		buf[n] = r.flags
		n++
		n += binary.PutVarint(buf[n:], f.ID)
		switch {
		case r.flags&flowFlagWideTime != 0:
			n += binary.PutVarint(buf[n:], f.Time.Unix())
			n += binary.PutUvarint(buf[n:], uint64(f.Time.Nanosecond()))
		case r.flags&flowFlagHasTime != 0:
			n += binary.PutVarint(buf[n:], f.Time.UnixNano())
		}
		n += binary.PutUvarint(buf[n:], uint64(c.strIDs[r.method]))
		urlParts := r.url[:1]
		if r.flags&flowFlagFastURL != 0 {
			urlParts = r.url[:]
		}
		for _, id := range urlParts {
			n += binary.PutUvarint(buf[n:], uint64(c.strIDs[id]))
		}
		n += binary.PutUvarint(buf[n:], c.reqIDs[r.reqHdr])
		n += binary.PutUvarint(buf[n:], c.blobRef(r.reqBody))
		n += binary.PutVarint(buf[n:], int64(f.StatusCode))
		n += binary.PutUvarint(buf[n:], c.respIDs[r.respHdr])
		n += binary.PutVarint(buf[n:], f.ResponseSize)
		n += binary.PutUvarint(buf[n:], c.blobRef(r.respBody))
		n += binary.PutUvarint(buf[n:], uint64(c.strIDs[r.channel]))
		n += binary.PutUvarint(buf[n:], uint64(c.strIDs[r.channelID]))
		buf = buf[:n]
	}
	return buf
}

// blobRef maps a chunk-local blob reference to the global one.
func (c *chunkEncoder) blobRef(ref uint32) uint64 {
	if ref == 0 {
		return 0
	}
	return c.blobIDs[ref-1]
}

// write writes the container with the encoded tables and runs between the
// lead and trailing sections. Each section reaches w as whole writes
// through one buffered writer, so a destination that grows with its writes
// (a bytes.Buffer) ends up with the capacity the serial writer left.
func (e *snapEncoding) write(w io.Writer, lead, trail []jsonSection) error {
	// A bufio.Writer keeps its first write error and returns it from every
	// later call, so only the marshals and the final Flush are checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVer)
	if err := writeJSONSections(bw, lead); err != nil {
		return err
	}
	var sw snapWriter
	writeTable(bw, &sw, secStrings, e.strs.All())
	writeTable(bw, &sw, secBlobs, e.blobs.blobs)
	writeTable(bw, &sw, secReqHdrs, e.reqHdrs.blocks)
	writeTable(bw, &sw, secRespHdrs, e.respHdrs.blocks)
	for _, sec := range e.runs {
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

// snapshotSections returns the JSON sections a dataset snapshot puts
// around its runs. The shard manifest leads so fleet tooling can identify
// a shard file from its first section; telemetry and the span trace trail
// the runs.
func (d *Dataset) snapshotSections() (lead, trail []jsonSection) {
	if d.Shard != nil {
		lead = append(lead, jsonSection{secShard, d.Shard})
	}
	if d.Telemetry != nil {
		trail = append(trail, jsonSection{secTelemetry, d.Telemetry})
	}
	if d.Trace != nil {
		trail = append(trail, jsonSection{secTrace, d.Trace})
	}
	return lead, trail
}

// saveSnapshot writes the dataset in the binary snapshot format.
func (d *Dataset) saveSnapshot(w io.Writer) error {
	lead, trail := d.snapshotSections()
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
	e, err := encodeRuns(d.Runs)
	if err != nil {
		return "", err
	}
	return e.digest()
}

// SaveDigest writes d in FormatSnapshot, as Save does, and returns
// d.Digest() from the same encode of the runs: a caller that both saves
// and digests a dataset pays for one encode.
func SaveDigest(w io.Writer, d *Dataset) (string, error) {
	e, err := encodeRuns(d.Runs)
	if err != nil {
		return "", err
	}
	lead, trail := d.snapshotSections()
	if err := e.write(w, lead, trail); err != nil {
		return "", err
	}
	return e.digest()
}

// digest hashes the runs-only container of the encoding.
func (e *snapEncoding) digest() (string, error) {
	h := sha256.New()
	if err := e.write(h, nil, nil); err != nil {
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

// encodeRunMeta appends a run section's metadata, everything before its
// flow count, interning its strings into tab.
func encodeRunMeta(w *snapWriter, run *RunData, tab *intern.Strings) error {
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
				return fmt.Errorf("store: snapshot: marshal overlay: %w", err)
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
	return nil
}

// plainURL reports whether u is an http(s) URL with a plain host (letters,
// digits and "-._~", optionally a numeric port), an empty or absolute
// path, and a query free of '#' and control bytes. Such a URL's four
// components survive String and Parse unchanged. Only those four fields
// are looked at.
func plainURL(u *url.URL) bool {
	return plainScheme(u.Scheme) && plainHost(u.Host) && plainPath(u.Path) && plainQuery(u.RawQuery)
}

// The four part tests of plainURL.

func plainScheme(s string) bool { return s == "http" || s == "https" }

func plainHost(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			return strings.Trim(s[i+1:], "0123456789") == ""
		}
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '.' || c == '_' || c == '~') {
			return false
		}
	}
	return true
}

func plainPath(s string) bool { return s == "" || s[0] == '/' }

func plainQuery(s string) bool {
	for i := 0; i < len(s); i++ {
		if queryStop[s[i]] {
			return false
		}
	}
	return true
}

// queryStop marks the bytes a plain query does not hold: '#' and the
// control bytes.
var queryStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '#' || c < ' ' || c == 0x7f
	}
	return t
}()

// URL part roles: bit i is set in a string's role mask when the string
// passes plainURL's test for part i.
const (
	roleScheme = 1 << iota
	roleHost
	rolePath
	roleQuery
)

// urlRoles returns s's role mask.
func urlRoles(s string) uint8 {
	var m uint8
	if plainScheme(s) {
		m |= roleScheme
	}
	if plainHost(s) {
		m |= roleHost
	}
	if plainPath(s) {
		m |= rolePath
	}
	if plainQuery(s) {
		m |= roleQuery
	}
	return m
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
// per flow — so the parallel flow decode is untouched. The end marker must
// be the last section: bytes after it are an error.
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
	for !sawEnd && sr.err == nil && sr.off < len(sr.b) {
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
			dec.roles = make([]uint8, 0, n)
			for i := uint64(0); i < n && ps.err == nil; i++ {
				s := string(ps.bytes())
				dec.strs = append(dec.strs, s)
				dec.roles = append(dec.roles, urlRoles(s))
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
	// Every writer puts the end marker last, so anything after it — a
	// second container appended to the file, say — is not this snapshot.
	if extra := len(sr.b) - sr.off; extra > 0 {
		return nil, nil, fmt.Errorf("store: snapshot: %d bytes after the end-of-snapshot marker", extra)
	}
	return runs, other, nil
}

// snapDecoder carries the per-load decode state. Each distinct header block
// in the two tables is built into an http.Header exactly once; flows then
// reference headers by index, so many flows share one map. Loaded datasets
// are read-only downstream, which makes that sharing safe.
type snapDecoder struct {
	strs []string
	// roles holds each string's URL part role mask (urlRoles), so a
	// decomposed URL is checked once per distinct part, not once per flow.
	roles    []uint8
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
		scheme, host, path, query := sr.strID(d.strs), sr.strID(d.strs), sr.strID(d.strs), sr.strID(d.strs)
		if sr.err != nil {
			return
		}
		uslot.Scheme, uslot.Host, uslot.Path, uslot.RawQuery = d.strs[scheme], d.strs[host], d.strs[path], d.strs[query]
		// The writer decomposes only URLs that re-parse to themselves;
		// anything else would not re-save to the same bytes. The role
		// masks settle plainURL; only a URL that fails it pays the round
		// trip.
		if d.roles[scheme]&roleScheme == 0 || d.roles[host]&roleHost == 0 ||
			d.roles[path]&rolePath == 0 || d.roles[query]&roleQuery == 0 {
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
