package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// This file holds the gzip-JSON reference writer: encoding/json over the
// mirror types the loader decodes. The format is read-only in production;
// tests use this writer to produce gzip-JSON inputs, and
// testdata/persisted.json.gz, written by the former production writer,
// pins its bytes (TestReferenceJSONMatchesFixture).

// referenceJSON returns the uncompressed gzip-JSON encoding of d: every
// list empty in d encodes as null, as the format always had it, headers
// flatten with multiple values joined by "\n", and Set-Cookie values move
// out of the response headers into their own list.
func referenceJSON(t testing.TB, d *Dataset) []byte {
	t.Helper()
	in := datasetJSON{Version: 1, Telemetry: d.Telemetry, Shard: d.Shard, Trace: d.Trace}
	for _, run := range d.Runs {
		rj := runJSON{Name: run.Name, Date: run.Date, Channels: run.Channels, RecoveredPanics: run.RecoveredPanics}
		for _, f := range run.Flows {
			rj.Flows = append(rj.Flows, referenceFlowJSON(f))
		}
		for _, c := range run.Cookies {
			rj.Cookies = append(rj.Cookies, cookieJSON(c))
		}
		for _, s := range run.Storage {
			rj.Storage = append(rj.Storage, storageJSON(s))
		}
		for _, s := range run.Screenshots {
			sj := screenshotJSON{Time: s.Time, Channel: s.Channel, ChannelID: s.ChannelID, HasSignal: s.HasSignal, Show: s.Show}
			if s.Overlay != nil {
				raw, err := json.Marshal(s.Overlay)
				if err != nil {
					t.Fatal(err)
				}
				sj.Overlay = (*appmodelOverlayJSON)(&raw)
			}
			rj.Screenshots = append(rj.Screenshots, sj)
		}
		for _, l := range run.Logs {
			rj.Logs = append(rj.Logs, logJSON{Time: l.Time, Kind: l.Kind, Detail: l.Detail})
		}
		for _, o := range run.Outcomes {
			rj.Outcomes = append(rj.Outcomes, outcomeJSON(o))
		}
		in.Runs = append(in.Runs, rj)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func referenceFlowJSON(f *proxy.Flow) flowJSON {
	fj := flowJSON{
		ID: f.ID, Time: f.Time, Method: f.Method, URL: f.URL.String(), HTTPS: f.HTTPS,
		ReqHdr: flattenHeader(f.RequestHeaders), ReqBody: f.RequestBody,
		Status: f.StatusCode, RespHdr: flattenHeader(f.ResponseHeaders),
		SetCookie: f.ResponseHeaders.Values("Set-Cookie"),
		RespSize:  f.ResponseSize, RespBody: f.ResponseBody,
		Channel: f.Channel, ChannelID: f.ChannelID,
	}
	delete(fj.RespHdr, "Set-Cookie")
	return fj
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

// referenceGzipJSON is referenceJSON gzip-compressed: a gzip-JSON dataset
// file as earlier versions wrote it.
func referenceGzipJSON(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newGzipJSON(&buf, string(referenceJSON(t, d))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixtureDataset is persistedDataset with every optional field of the
// gzip-JSON format present: a second flow with a multi-valued request
// header, a flow channel ID, a host-only cookie, outcome records, a
// recovered panic, a telemetry snapshot, a shard manifest and a span
// trace. testdata/persisted.json.gz is its encoding by the former
// gzip-JSON writer.
func fixtureDataset() *Dataset {
	ds := persistedDataset()
	run := ds.Runs[0]
	t0 := run.Date
	run.Flows[0].ChannelID = "sid-1"
	second := mkFlow("https://cdn.a.de/app.js?v=2", "A", true)
	second.ID = 8
	second.ChannelID = "sid-1"
	second.RequestHeaders.Add("Accept", "text/javascript")
	second.RequestHeaders.Add("Accept", "*/*")
	second.ResponseHeaders.Set("Content-Type", "application/javascript")
	run.Flows = append(run.Flows, second)
	run.Cookies[0].HostOnly = true
	run.Outcomes = []ChannelOutcome{
		{Channel: "A", Status: OutcomeOK, Attempts: 2},
		{Channel: "B", Status: OutcomeFailed, Attempts: 3, Error: "no signal lock"},
	}
	run.RecoveredPanics = 1
	ds.Telemetry = &telemetry.Snapshot{
		Counters: map[string]uint64{"proxy_flows_recorded": 2},
		Gauges:   map[string]int64{"core_workers": 2},
		Histograms: map[string]telemetry.HistogramSnapshot{"core_visit_ms": {
			Count: 1, Sum: 40, Buckets: []telemetry.BucketCount{{UpperBound: 50, Count: 1}, {UpperBound: -1, Count: 0}},
		}},
		Shards: []telemetry.ShardCounters{{Shard: 0, Counters: map[string]uint64{"proxy_flows_recorded": 2}}},
	}
	order := []string{"A", "B"}
	ds.Shard = &ShardManifest{
		Shard: 0, Shards: 2,
		Params: StudyParams{
			Seed: 1, Scale: 0.05, ProbeWatchNS: int64(20 * time.Second),
			RunsDigest: "runs", FaultsDigest: "faults",
			Retry: RetryParams{MaxAttempts: 2, BackoffNS: int64(2 * time.Second), BackoffMaxNS: int64(time.Minute),
				VisitDeadlineNS: int64(5 * time.Minute), QuarantineAfter: 2},
		},
		ChannelOrder: order,
		OrderDigest:  ChannelOrderDigest(order),
		Coverage:     []ShardRunCoverage{{Run: RunRed, Date: t0, Channels: 1, OK: 1, Failed: 1, Skipped: 1, Quarantined: 1}},
	}
	ds.Trace = &telemetry.Trace{
		Spans: []telemetry.Span{
			{ID: 1, Shard: 0, Kind: telemetry.SpanRun, Name: "red", Start: t0, End: t0.Add(time.Hour)},
			{ID: 2, Parent: 1, Shard: 0, Kind: telemetry.SpanBurst, Name: "A", Start: t0, End: t0.Add(time.Minute),
				Attempt: 2, Flows: 2, Notes: []telemetry.SpanNote{{Time: t0, Kind: telemetry.EventRetry, Detail: "attempt 2"}}},
		},
		Dropped: []telemetry.SpanDrops{{Shard: 0, Dropped: 3}},
	}
	return ds
}

// fixtureFile is the gzip-JSON file the former writer wrote for
// fixtureDataset.
const fixtureFile = "testdata/persisted.json.gz"

// TestReferenceJSONMatchesFixture: the reference writer reproduces the
// former writer's uncompressed bytes exactly.
func TestReferenceJSONMatchesFixture(t *testing.T) {
	want := gunzipFile(t, fixtureFile)
	if got := referenceJSON(t, fixtureDataset()); !bytes.Equal(got, want) {
		t.Fatalf("reference writer differs from %s:\ngot  %s\nwant %s", fixtureFile, got, want)
	}
}

func gunzipFile(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(gz); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
