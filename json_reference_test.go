package hbbtvlab

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file holds the root package's gzip-JSON reference writer:
// encoding/json over a test-local mirror of the format, which store.Load
// still reads but nothing in production writes. It is the former digest's
// definition (jsonMirrorDigest) and the writer of the gzip-JSON inputs the
// round-trip tests load. TestReferenceJSONMatchesFixture holds it to the
// bytes the former production writer wrote.

type jsonDataset struct {
	Version   int                  `json:"version"`
	Runs      []jsonRun            `json:"runs"`
	Telemetry *telemetry.Snapshot  `json:"telemetry,omitempty"`
	Shard     *store.ShardManifest `json:"shard,omitempty"`
	Trace     *telemetry.Trace     `json:"trace,omitempty"`
}

type jsonRun struct {
	Name            store.RunName       `json:"name"`
	Date            time.Time           `json:"date"`
	Channels        []store.ChannelInfo `json:"channels"`
	Flows           []jsonFlow          `json:"flows"`
	Cookies         []jsonCookie        `json:"cookies"`
	Storage         []jsonStorage       `json:"storage"`
	Screenshots     []jsonScreenshot    `json:"screenshots"`
	Logs            []jsonLog           `json:"logs"`
	Outcomes        []jsonOutcome       `json:"outcomes,omitempty"`
	RecoveredPanics int                 `json:"recoveredPanics,omitempty"`
}

type jsonFlow struct {
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

type jsonCookie struct {
	Name     string    `json:"name"`
	Value    string    `json:"value"`
	Domain   string    `json:"domain"`
	Path     string    `json:"path"`
	Expires  time.Time `json:"expires,omitempty"`
	Created  time.Time `json:"created"`
	HostOnly bool      `json:"hostOnly,omitempty"`
	SetBy    string    `json:"setBy,omitempty"`
}

type jsonStorage struct {
	Origin string `json:"origin"`
	Key    string `json:"key"`
	Value  string `json:"value"`
}

type jsonScreenshot struct {
	Time      time.Time             `json:"time"`
	Channel   string                `json:"channel"`
	ChannelID string                `json:"channelId"`
	HasSignal bool                  `json:"hasSignal"`
	Overlay   *appmodel.OverlaySpec `json:"overlay,omitempty"`
	Show      string                `json:"show,omitempty"`
}

type jsonOutcome struct {
	Channel  string              `json:"channel"`
	Status   store.OutcomeStatus `json:"status"`
	Attempts int                 `json:"attempts,omitempty"`
	Error    string              `json:"error,omitempty"`
}

type jsonLog struct {
	Time   time.Time     `json:"time"`
	Kind   webos.LogKind `json:"kind"`
	Detail string        `json:"detail"`
}

// mirrorDataset builds ds's mirror. Every list empty in ds stays nil, so
// it encodes as null, as the format always had it.
func mirrorDataset(ds *store.Dataset) *jsonDataset {
	out := &jsonDataset{Version: 1, Telemetry: ds.Telemetry, Shard: ds.Shard, Trace: ds.Trace}
	for _, run := range ds.Runs {
		jr := jsonRun{Name: run.Name, Date: run.Date, Channels: run.Channels, RecoveredPanics: run.RecoveredPanics}
		for _, f := range run.Flows {
			jf := jsonFlow{
				ID: f.ID, Time: f.Time, Method: f.Method, URL: f.URL.String(), HTTPS: f.HTTPS,
				ReqHdr: flattenHeader(f.RequestHeaders), ReqBody: f.RequestBody,
				Status: f.StatusCode, RespHdr: flattenHeader(f.ResponseHeaders),
				SetCookie: f.ResponseHeaders.Values("Set-Cookie"),
				RespSize:  f.ResponseSize, RespBody: f.ResponseBody,
				Channel: f.Channel, ChannelID: f.ChannelID,
			}
			delete(jf.RespHdr, "Set-Cookie")
			jr.Flows = append(jr.Flows, jf)
		}
		for _, c := range run.Cookies {
			jr.Cookies = append(jr.Cookies, jsonCookie(c))
		}
		for _, s := range run.Storage {
			jr.Storage = append(jr.Storage, jsonStorage(s))
		}
		for _, s := range run.Screenshots {
			jr.Screenshots = append(jr.Screenshots, jsonScreenshot{
				Time: s.Time, Channel: s.Channel, ChannelID: s.ChannelID,
				HasSignal: s.HasSignal, Overlay: s.Overlay, Show: s.Show,
			})
		}
		for _, l := range run.Logs {
			jr.Logs = append(jr.Logs, jsonLog{Time: l.Time, Kind: l.Kind, Detail: l.Detail})
		}
		for _, o := range run.Outcomes {
			jr.Outcomes = append(jr.Outcomes, jsonOutcome(o))
		}
		out.Runs = append(out.Runs, jr)
	}
	return out
}

// flattenHeader joins each header's values with "\n"; an empty header
// flattens to nil.
func flattenHeader(h http.Header) map[string]string {
	if len(h) == 0 {
		return nil
	}
	m := make(map[string]string, len(h))
	for k, vs := range h {
		m[k] = strings.Join(vs, "\n")
	}
	return m
}

// writeReferenceJSON writes ds's uncompressed gzip-JSON encoding to w.
func writeReferenceJSON(w io.Writer, ds *store.Dataset) error {
	return json.NewEncoder(w).Encode(mirrorDataset(ds))
}

// saveReferenceJSON writes ds to w as a gzip-JSON dataset file, as earlier
// versions of Save did; store.Load reads it back. The round trips only
// need a valid gzip stream, so it compresses at the fastest level.
func saveReferenceJSON(w io.Writer, ds *store.Dataset) error {
	gz, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
	if err := writeReferenceJSON(gz, ds); err != nil {
		return err
	}
	return gz.Close()
}

// saveSnapshot is store.Save in the snapshot format, shaped like
// saveReferenceJSON so tests can range over both writers.
func saveSnapshot(w io.Writer, ds *store.Dataset) error {
	return store.Save(w, ds, store.FormatSnapshot)
}

// jsonMirrorDigest is the digest's former definition: the SHA-256 of the
// uncompressed gzip-JSON encoding of the dataset's runs.
func jsonMirrorDigest(t *testing.T, ds *store.Dataset) string {
	t.Helper()
	h := sha256.New()
	if err := writeReferenceJSON(h, &store.Dataset{Runs: ds.Runs}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReferenceJSONMatchesFixture loads the gzip-JSON file the former
// production writer wrote (internal/store's fixture, which carries every
// optional field of the format) and re-encodes it: the reference writer
// must reproduce the file's uncompressed bytes exactly.
func TestReferenceJSONMatchesFixture(t *testing.T) {
	raw, err := os.ReadFile("internal/store/testdata/persisted.json.gz")
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeReferenceJSON(&got, ds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("reference writer differs from the fixture:\ngot  %s\nwant %s", got.Bytes(), want)
	}
}
