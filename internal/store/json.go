package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file holds the dataset's format-agnostic entry points (Save, Load)
// and the reader of the gzip-JSON format, so that data collection
// (cmd/hbbtv-measure) and analysis (cmd/hbbtv-analyze) can run as
// separate processes — the study's collection machine pushed to BigQuery
// and the analyses ran later. Datasets are written as binary snapshots
// (snapshot.go), over which the dataset's identity (Dataset.Digest) is
// defined. Gzip-JSON is read-only: earlier versions wrote it, flattening
// flows into a portable, self-explaining schema, and files they wrote
// still load through Load. The mirror types below are that schema.

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

// Format selects the dataset's on-disk encoding for Save. Load sniffs the
// format from the leading magic bytes, so it also reads gzip-JSON files,
// which nothing writes any more.
type Format int

// FormatSnapshot is the versioned binary snapshot — string/blob/header
// tables, chunk-framed flow records decoded on all cores. It is not the
// zero value, so a Save with an unset Format fails instead of silently
// choosing.
const FormatSnapshot Format = 1

// String names the format.
func (f Format) String() string {
	if f == FormatSnapshot {
		return "snapshot"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Save writes the dataset to w in the chosen format, including the
// telemetry snapshot, shard manifest and span trace when attached; Load
// reads it back.
func Save(w io.Writer, d *Dataset, f Format) error {
	if f == FormatSnapshot {
		return d.saveSnapshot(w)
	}
	return fmt.Errorf("store: save: unknown format %v", f)
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

// Load reads a dataset in either on-disk format: the binary snapshot
// (FormatSnapshot) or the gzip-JSON files earlier versions wrote. The
// format is sniffed from the leading magic bytes.
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

// loadJSON reads a gzip-JSON dataset.
func loadJSON(r io.Reader, dd *Dedup) (*Dataset, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer gz.Close()
	dec := json.NewDecoder(gz)
	var in datasetJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	// The decoder stops at the value's closing brace. Reading on to the
	// end verifies the gzip trailer (a file torn inside it would otherwise
	// load "cleanly"), and what follows the value may be JSON whitespace
	// only: the writer ended it with a newline. gzip.Reader reads
	// concatenated members as one stream, so a second dataset appended to
	// the file fails here too.
	if _, err := io.Copy(jsonSpace{}, io.MultiReader(dec.Buffered(), gz)); err != nil {
		return nil, fmt.Errorf("store: load: end of stream: %w", err)
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

// jsonSpace is a writer that accepts JSON whitespace only.
type jsonSpace struct{}

func (jsonSpace) Write(p []byte) (int, error) {
	if len(bytes.TrimLeft(p, " \t\r\n")) > 0 {
		return 0, errors.New("data after the dataset")
	}
	return len(p), nil
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
