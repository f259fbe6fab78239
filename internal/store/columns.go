package store

// The columnar flow representation behind Index. A row-oriented index
// would hold one struct (and four strings) per flow; at paper scale that
// is half a million URL strings, half a million eTLD+1 computations, and
// half a million filter-list classifications for a corpus with only a
// few thousand distinct URLs. The columnar layout interns every
// string-valued field into dense ID tables and keeps typed columns (int32
// IDs, int64 timestamps, kind bits) per row instead:
//
//   - chunk scan (parallel): flows are split into fixed-size row chunks;
//     each chunk interns its strings and request payloads into chunk-local
//     tables, parses cookies, evaluates the response-dependent classifier
//     bits, and notes the rows whose response is an HTML document. A URL's
//     string is built once per distinct url.URL value in the chunk, not
//     once per row.
//   - stitch (serial, deterministic): chunk-local tables merge into global
//     tables in chunk order — provably the same ID assignment a serial
//     scan would produce — per-host eTLD+1s resolve once per host, and the
//     documents' bodies are interned in row order.
//   - finish (parallel): local IDs remap to global IDs in place, and the
//     URL-determined classifier bits are evaluated once per *distinct*
//     URL, not once per flow.
//
// Every phase is a pure function of the dataset, so the columns are
// byte-identical for any worker count. The build is the last reader of the
// flows (IndexConfig.ClassifyFlow its one per-flow callback). The analysis
// sections read only the columns, and their per-row loops read tables that
// hold one entry per distinct URL, payload, channel or response body.

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hbbtvlab/hbbtvlab/internal/etld"
	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// Columns is the struct-of-arrays view of every indexed flow. All slices
// are row-aligned (row = position in dataset order across runs) unless
// noted; everything is read-only after BuildIndex returns.
type Columns struct {
	// Intern tables. Channels is seeded with the dataset's channel
	// metadata (in first-appearance order, matching Index.Channels) before
	// flow-attributed names are added.
	URLs     *intern.Strings
	Hosts    *intern.Strings
	Parties  *intern.Strings
	Channels *intern.Strings
	// MetaChannels is the number of Channels entries seeded from run
	// metadata; IDs [0, MetaChannels) enumerate Index.Channels in order.
	MetaChannels int
	// ChannelMeta maps the seeded channel IDs [0, MetaChannels) to the
	// channel's metadata in the first run that lists it, as
	// Dataset.ChannelInfo resolves it by name.
	ChannelMeta []*ChannelInfo
	// Payloads holds every distinct request payload — the pair of a URL's
	// raw query and the request body — in first-occurrence order.
	Payloads []Payload

	// RunNames maps RunID values back to run names.
	RunNames []RunName

	// Row-aligned columns.
	URLID     []int32
	HostID    []int32
	PartyID   []int32
	ChannelID []int32 // -1 for unattributed flows
	RunID     []int32
	Kind      []FlowKind
	TimeNS    []int64
	HTTPS     []bool
	// HasCookies marks rows whose response carried at least one
	// Set-Cookie (attributed or not).
	HasCookies []bool
	// CookieOff has len Rows()+1; the attributed cookie events of row i
	// are Index.SetEvents[CookieOff[i]:CookieOff[i+1]].
	CookieOff []int32
	// PayloadID maps a row to its entry in Payloads; -1 for rows whose
	// request carries neither a query nor a body.
	PayloadID []int32
	// DocRows lists, in row order, the rows whose response is an HTML
	// document (status 200, media type text/html, a body). DocBody maps
	// each to its body in Docs, the distinct bodies in first-occurrence
	// order. The Section VII policy corpus is built from them.
	DocRows []int32
	DocBody []int32
	Docs    []string

	// PartyOfHost maps HostID -> PartyID (eTLD+1 computed once per host).
	PartyOfHost []int32
	// URLKind maps URLID -> the URL-determined classifier bits (filter
	// list hits), evaluated once per distinct URL. Nil when the config has
	// no ClassifyURL.
	URLKind []FlowKind
}

// Rows returns the number of indexed rows (flows).
func (c *Columns) Rows() int { return len(c.Kind) }

// RunName resolves a row's measurement run name.
func (c *Columns) RunName(row int) RunName { return c.RunNames[c.RunID[row]] }

// Party resolves a row's request-host eTLD+1.
func (c *Columns) Party(row int) string { return c.Parties.String(c.PartyID[row]) }

// Host resolves a row's request host.
func (c *Columns) Host(row int) string { return c.Hosts.String(c.HostID[row]) }

// URL resolves a row's URL string.
func (c *Columns) URL(row int) string { return c.URLs.String(c.URLID[row]) }

// ChannelInfo resolves a channel ID to its run metadata; nil for -1 and
// for channels that only flows name.
func (c *Columns) ChannelInfo(id int32) *ChannelInfo {
	if id < 0 || int(id) >= len(c.ChannelMeta) {
		return nil
	}
	return c.ChannelMeta[id]
}

// Payload is one distinct request payload: the two places a request
// carries data to its receiver.
type Payload struct {
	Query string // URL.RawQuery
	Body  string // RequestBody
}

// BuildStats describes how the columnar build ran — chunk scheduling and
// dedup factors — for telemetry. It carries no analysis data and is
// excluded from index-equivalence comparisons.
type BuildStats struct {
	Rows           int
	Chunks         int
	Workers        int
	UniqueURLs     int
	UniqueHosts    int
	UniqueParties  int
	UniqueChannels int
}

// flattenFlows concatenates every run's flows with an exact capacity hint
// (the run flow counts are summed first — appending per run without a hint
// reallocated the half-million-row backing array a dozen times) and
// derives the row-aligned run column.
func flattenFlows(ds *Dataset) (flows []*proxy.Flow, runID []int32) {
	total := 0
	for _, r := range ds.Runs {
		total += len(r.Flows)
	}
	flows = make([]*proxy.Flow, 0, total)
	runID = make([]int32, total)
	row := 0
	for ri, r := range ds.Runs {
		flows = append(flows, r.Flows...)
		for range r.Flows {
			runID[row] = int32(ri)
			row++
		}
	}
	return flows, runID
}

// parallelChunks runs fn(chunk) for chunk in [0, nChunks), fanning out over
// at most `workers` goroutines (<=1 runs on the calling goroutine). A
// cancelled ctx stops scheduling new chunks; chunks already started finish.
// Chunk outputs must go to chunk-indexed slots, which keeps any downstream
// in-order merge independent of the worker count.
func parallelChunks(ctx context.Context, workers, nChunks int, fn func(chunk int)) {
	if workers > nChunks {
		workers = nChunks
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers <= 1 {
		for i := 0; i < nChunks; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= nChunks {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cookieCell is one parsed Set-Cookie of an attributed flow, recorded
// during the chunk scan and expanded into CookieSetEvents at stitch time.
type cookieCell struct {
	row         int32
	name, value string
}

// chunkLocal is one chunk's scan output: local intern tables plus the
// chunk's share of the row columns (written directly into the global
// arrays, since chunks own disjoint row ranges).
type chunkLocal struct {
	urls, hosts, chans, bodies *intern.Strings
	payloads                   payloadTable
	cells                      []cookieCell
	docs                       []int32 // HTML document rows
}

// payloadKey identifies a payload inside one intern table: the query
// string and the body's ID in the matching bodies table (-1 for none).
type payloadKey struct {
	query string
	body  int32
}

// payloadTable interns payload keys with dense IDs in first-insertion
// order, as intern.Strings does for strings.
type payloadTable struct {
	ids  map[payloadKey]int32
	keys []payloadKey
}

func (t *payloadTable) intern(k payloadKey) int32 {
	if id, ok := t.ids[k]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[payloadKey]int32)
	}
	id := int32(len(t.keys))
	t.ids[k] = id
	t.keys = append(t.keys, k)
	return id
}

// urlEntry is the chunk scan's memo of one distinct url.URL value: its
// chunk-local URL string and host IDs, and the local payload ID of its
// query sent without a body (-1 until a row needs it).
type urlEntry struct {
	id, host, payload int32
}

// urlMemo is one chunk scan's lookup from url.URL values to urlEntry
// indexes.
type urlMemo struct {
	index   map[url.URL]int32
	entries []urlEntry
}

// entry returns the memo entry of f's URL value, interning the URL's
// string and f's host on the first sight of the value. Values that differ
// in a field but print the same string share the string's ID. The host is
// a function of the URL (proxy.Flow.Host), so it is memoized with it.
func (m *urlMemo) entry(f *proxy.Flow, local *chunkLocal) *urlEntry {
	k, ok := m.index[*f.URL]
	if !ok {
		k = int32(len(m.entries))
		m.entries = append(m.entries, urlEntry{
			id:      local.urls.Intern(f.URL.String()),
			host:    local.hosts.Intern(f.Host()),
			payload: -1,
		})
		m.index[*f.URL] = k
	}
	return &m.entries[k]
}

// setCookieMemo is one chunk scan's parsed Set-Cookie headers, by response
// header map. Recorded and loaded flows share one read-only map per
// distinct block, so a map's identity stands for its content, and each
// map is parsed once per chunk (the snapshot writer's headerTable keys its
// encodes the same way).
type setCookieMemo map[uintptr][]*http.Cookie

// of returns f.SetCookies(), parsing f's response headers on the first
// sight of their map.
func (m setCookieMemo) of(f *proxy.Flow) []*http.Cookie {
	h := f.ResponseHeaders
	if len(h["Set-Cookie"]) == 0 {
		return nil
	}
	k := reflect.ValueOf(h).Pointer()
	cs, ok := m[k]
	if !ok {
		cs = f.SetCookies()
		m[k] = cs
	}
	return cs
}

// buildColumns runs the three-phase columnar build described in the file
// comment. The returned cookie cells are in row order, ready for event
// expansion. A cancelled context aborts between chunks with ctx.Err().
func buildColumns(ctx context.Context, ds *Dataset, cfg IndexConfig) (*Columns, []cookieCell, *BuildStats, error) {
	flows, runID := flattenFlows(ds)
	rows := len(flows)
	c := &Columns{
		RunNames:   make([]RunName, len(ds.Runs)),
		URLID:      make([]int32, rows),
		HostID:     make([]int32, rows),
		PartyID:    make([]int32, rows),
		ChannelID:  make([]int32, rows),
		RunID:      runID,
		Kind:       make([]FlowKind, rows),
		TimeNS:     make([]int64, rows),
		HTTPS:      make([]bool, rows),
		HasCookies: make([]bool, rows),
		PayloadID:  make([]int32, rows),
	}
	for i, r := range ds.Runs {
		c.RunNames[i] = r.Name
	}

	// The channel table is seeded from the runs' channel metadata in
	// dataset order, so table IDs [0, nMeta) enumerate Index.Channels and
	// a channel's first entry is the one Dataset.ChannelInfo returns.
	c.Channels = intern.NewStrings(64)
	for _, r := range ds.Runs {
		for i := range r.Channels {
			if int(c.Channels.Intern(r.Channels[i].Name)) == len(c.ChannelMeta) {
				c.ChannelMeta = append(c.ChannelMeta, &r.Channels[i])
			}
		}
	}
	c.MetaChannels = c.Channels.Len()

	nChunks := (rows + indexChunk - 1) / indexChunk
	workers := cfg.Parallelism
	if workers < 1 {
		workers = 1
	}
	stats := &BuildStats{Rows: rows, Chunks: nChunks, Workers: workers}

	// Phase 1: parallel chunk scan. Chunk-local string tables; per-row
	// typed fields land directly in the global columns (disjoint ranges).
	locals := make([]chunkLocal, nChunks)
	parallelChunks(ctx, workers, nChunks, func(chunk int) {
		lo := chunk * indexChunk
		hi := lo + indexChunk
		if hi > rows {
			hi = rows
		}
		local := chunkLocal{
			urls:   intern.NewStrings(32),
			hosts:  intern.NewStrings(32),
			chans:  intern.NewStrings(16),
			bodies: intern.NewStrings(0),
		}
		memo := urlMemo{index: make(map[url.URL]int32, 64)}
		cookies := make(setCookieMemo)
		for i := lo; i < hi; i++ {
			f := flows[i]
			e := memo.entry(f, &local)
			c.URLID[i] = e.id
			c.HostID[i] = e.host
			switch {
			case len(f.RequestBody) > 0:
				c.PayloadID[i] = local.payloads.intern(payloadKey{f.URL.RawQuery, local.bodies.InternBytes(f.RequestBody)})
			case f.URL.RawQuery == "":
				c.PayloadID[i] = -1
			default:
				if e.payload < 0 {
					e.payload = local.payloads.intern(payloadKey{f.URL.RawQuery, -1})
				}
				c.PayloadID[i] = e.payload
			}
			if f.Channel != "" {
				c.ChannelID[i] = local.chans.Intern(f.Channel)
			} else {
				c.ChannelID[i] = -1
			}
			c.TimeNS[i] = f.Time.UnixNano()
			c.HTTPS[i] = f.HTTPS
			if cfg.ClassifyFlow != nil {
				c.Kind[i] = cfg.ClassifyFlow(f)
			}
			if cs := cookies.of(f); len(cs) > 0 {
				c.HasCookies[i] = true
				if f.Channel != "" {
					for _, ck := range cs {
						local.cells = append(local.cells, cookieCell{
							row: int32(i), name: ck.Name, value: ck.Value,
						})
					}
				}
			}
			if f.StatusCode == 200 && len(f.ResponseBody) > 0 && f.ContentType() == "text/html" {
				local.docs = append(local.docs, int32(i))
			}
		}
		locals[chunk] = local
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Phase 2: serial stitch. Merging the chunk-local tables in chunk
	// order assigns global IDs exactly as a serial scan would (a string's
	// ID is fixed by its first occurrence), so the tables are independent
	// of the worker count.
	urlTables := make([]*intern.Strings, nChunks)
	hostTables := make([]*intern.Strings, nChunks)
	chanTables := make([]*intern.Strings, nChunks)
	bodyTables := make([]*intern.Strings, nChunks)
	for i := range locals {
		urlTables[i] = locals[i].urls
		hostTables[i] = locals[i].hosts
		chanTables[i] = locals[i].chans
		bodyTables[i] = locals[i].bodies
	}
	var urlRemap, hostRemap, chanRemap [][]int32
	c.URLs, urlRemap = intern.MergeStrings(urlTables)
	c.Hosts, hostRemap = intern.MergeStrings(hostTables)
	chanRemap = c.Channels.Absorb(chanTables)
	payloadRemap := c.mergePayloads(locals, bodyTables)
	// Document bodies are interned here, once: chunk-local tables would
	// copy a body once per chunk that serves it.
	docs := intern.NewStrings(0)
	for i := range locals {
		for _, row := range locals[i].docs {
			c.DocRows = append(c.DocRows, row)
			c.DocBody = append(c.DocBody, docs.InternBytes(flows[row].ResponseBody))
		}
	}
	c.Docs = docs.All()

	// eTLD+1 once per distinct host, interning the party table in host-ID
	// order (deterministic).
	c.Parties = intern.NewStrings(c.Hosts.Len())
	c.PartyOfHost = make([]int32, c.Hosts.Len())
	for hostID, host := range c.Hosts.All() {
		c.PartyOfHost[hostID] = c.Parties.Intern(etld.MustRegistrableDomain(host))
	}

	// URL-determined classifier bits once per distinct URL (parallel over
	// the URL table; each ID computed exactly once into its own slot).
	if cfg.ClassifyURL != nil {
		c.URLKind = make([]FlowKind, c.URLs.Len())
		urls := c.URLs.All()
		const urlChunk = 64
		n := (len(urls) + urlChunk - 1) / urlChunk
		parallelChunks(ctx, workers, n, func(chunk int) {
			lo := chunk * urlChunk
			hi := lo + urlChunk
			if hi > len(urls) {
				hi = len(urls)
			}
			for u := lo; u < hi; u++ {
				c.URLKind[u] = cfg.ClassifyURL(urls[u])
			}
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Phase 3: parallel finish. Remap chunk-local IDs to global IDs in
	// place, resolve parties, and fold the memoized URL bits into the
	// final per-row kind.
	parallelChunks(ctx, workers, nChunks, func(chunk int) {
		lo := chunk * indexChunk
		hi := lo + indexChunk
		if hi > rows {
			hi = rows
		}
		ur, hr, cr, pr := urlRemap[chunk], hostRemap[chunk], chanRemap[chunk], payloadRemap[chunk]
		for i := lo; i < hi; i++ {
			c.URLID[i] = ur[c.URLID[i]]
			c.HostID[i] = hr[c.HostID[i]]
			c.PartyID[i] = c.PartyOfHost[c.HostID[i]]
			if c.ChannelID[i] >= 0 {
				c.ChannelID[i] = cr[c.ChannelID[i]]
			}
			if c.PayloadID[i] >= 0 {
				c.PayloadID[i] = pr[c.PayloadID[i]]
			}
			if c.URLKind != nil {
				c.Kind[i] |= c.URLKind[c.URLID[i]]
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Flatten the cookie cells in chunk (= row) order and compute the
	// per-row event offsets.
	total := 0
	for i := range locals {
		total += len(locals[i].cells)
	}
	cells := make([]cookieCell, 0, total)
	for i := range locals {
		cells = append(cells, locals[i].cells...)
	}
	c.CookieOff = make([]int32, rows+1)
	for i := range cells {
		c.CookieOff[cells[i].row+1]++
	}
	for i := 0; i < rows; i++ {
		c.CookieOff[i+1] += c.CookieOff[i]
	}

	stats.UniqueURLs = c.URLs.Len()
	stats.UniqueHosts = c.Hosts.Len()
	stats.UniqueParties = c.Parties.Len()
	stats.UniqueChannels = c.Channels.Len()
	return c, cells, stats, nil
}

// mergePayloads stitches the chunk-local payload tables into c.Payloads in
// chunk order, as intern.MergeStrings does for strings: the request bodies merge
// first, and each local key is re-keyed by its global body ID. It returns
// the per-chunk local-ID -> global-ID remaps.
func (c *Columns) mergePayloads(locals []chunkLocal, bodyTables []*intern.Strings) [][]int32 {
	bodies, bodyRemap := intern.MergeStrings(bodyTables)
	var global payloadTable
	remaps := make([][]int32, len(locals))
	for ci := range locals {
		keys := locals[ci].payloads.keys
		remap := make([]int32, len(keys))
		for j, k := range keys {
			if k.body >= 0 {
				k.body = bodyRemap[ci][k.body]
			}
			remap[j] = global.intern(k)
		}
		remaps[ci] = remap
	}
	c.Payloads = make([]Payload, len(global.keys))
	for id, k := range global.keys {
		c.Payloads[id] = Payload{Query: k.query, Body: bodies.String(k.body)}
	}
	return remaps
}
