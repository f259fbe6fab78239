package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// writerDataset is the chunked writer's fixture: runs of 0, 1, 2,047,
// 2,048, 2,049 and 4,097 flows, so chunk boundaries fall on, before and
// after every edge. Across chunks and runs it holds:
//   - one header map shared by every chunk and run, and two distinct maps
//     with equal content in different chunks;
//   - one map (with Set-Cookie entries) as request and response headers;
//   - a header value and a Set-Cookie string first seen in a later chunk;
//   - a channel name both a run's metadata and its own flows carry, and a
//     channel first seen in a run's flows and then in the next run's
//     metadata;
//   - bodies shared across chunks and runs;
//   - URLs that cannot be stored decomposed, in later chunks;
//   - a flow time outside UnixNano's range.
//
// Paths, some bodies and some request header maps are new in every run,
// and paths cycle with a period that does not divide the chunk size, so
// every chunk of a run brings strings, bodies and blocks that no earlier
// chunk held.
//
// A last run (repeatRun) holds the cases of the encoder's previous-flow
// checks.
func writerDataset(t testing.TB) *Dataset {
	t0 := time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)
	shared := http.Header{"User-Agent": {"HbbTV/1.5.1"}, "Accept": {"text/html", "image/gif"}}
	equal := http.Header{"Content-Type": {"image/gif"}}
	both := http.Header{"Content-Type": {"text/html"}, "Set-Cookie": {"uid=1; Path=/", "sess=2"}}
	late := http.Header{"X-Late": {"first-seen-late"}, "Set-Cookie": {"late=1; Path=/"}}
	bodies := [][]byte{nil, []byte("beacon=1"), []byte("<html>policy</html>"), []byte("{}")}
	odd := []string{
		"http://a.de/x#frag",          // a fragment
		"http://user:pw@a.de/login",   // user info
		"http://a.de/a%2Fb",           // an escaped path
		"ftp://files.example.org/a?x", // round-trips, though not plain
	}
	channels := []string{"Das Erste", "ZDF", "KiKA", "arte"}

	sizes := []int{0, 1, 2047, 2048, 2049, 4097}
	names := []RunName{RunGeneral, RunRed, RunGreen, RunBlue, RunYellow, "Extra"}
	ds := &Dataset{
		Shard:     &ShardManifest{Shard: 0, Campaign: Campaign{Shards: 1, ChannelOrder: channels}},
		Telemetry: &telemetry.Snapshot{Counters: map[string]uint64{"proxy_flows_recorded": 1}},
	}
	id := int64(0)
	for r, n := range sizes {
		// Run r lists channels 0..r: its flows carry channel r, which run
		// r-1's flows already carried.
		run := &RunData{Name: names[r], Date: t0.Add(time.Duration(r) * time.Hour)}
		perRun := http.Header{"X-Run": {fmt.Sprint(r)}}
		for c := 0; c <= min(r, len(channels)-1); c++ {
			run.Channels = append(run.Channels, ChannelInfo{Name: channels[c], ID: fmt.Sprintf("sid-%d", c)})
		}
		for i := 0; i < n; i++ {
			id++
			raw := fmt.Sprintf("http://h%d.example/r%d/p%d?q=%d", i%37, r, i%3001, i%997)
			if i > snapFlowChunk && i%401 == 0 {
				raw = odd[(i/401)%len(odd)]
			}
			u, err := url.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			f := &proxy.Flow{
				ID: id, Time: t0.Add(time.Duration(id) * time.Millisecond), Method: "GET", URL: u,
				HTTPS: i%5 == 0, StatusCode: 200, ResponseSize: int64(i % 300),
				RequestHeaders: shared, ResponseHeaders: equal,
				RequestBody: bodies[i%len(bodies)], ResponseBody: bodies[(i/3)%len(bodies)],
				Channel:   channels[min(r, len(channels)-1)],
				ChannelID: fmt.Sprintf("sid-%d", min(r, len(channels)-1)),
			}
			// The next run's channel first shows up in this run's flows.
			if i%7 == 3 && r+1 < len(channels) {
				f.Channel = channels[r+1]
			}
			if i%97 == 5 {
				f.RequestHeaders = perRun
				f.RequestBody = fmt.Appendf(nil, "r%d-b%d", r, i%5)
			}
			if i == 2500 {
				f.ResponseBody = fmt.Appendf(nil, "r%d-late", r)
			}
			switch {
			case i == 3000:
				f.ResponseHeaders = late
			case i >= snapFlowChunk && i%2 == 0:
				f.ResponseHeaders = equal.Clone() // equal content, another map
			case i%11 == 0:
				f.RequestHeaders, f.ResponseHeaders = both, both
			}
			if i == n-1 && r == len(sizes)-1 {
				f.Time = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
			}
			run.Flows = append(run.Flows, f)
		}
		ds.Runs = append(ds.Runs, run)
	}
	ds.Runs = append(ds.Runs, repeatRun(id, t0, shared))
	return ds
}

// repeatRun is a run whose consecutive flows differ in one way at a time,
// against the encoder's reuse of the previous flow's IDs and URL verdict.
// Every flow carries its strings in backing arrays of its own, so equal
// strings never share a pointer (a). Its URLs change one part while the
// other three stay (b); repeat the previous flow's four parts and add a
// Fragment, a RawPath or ForceQuery, so the URL must not be stored
// decomposed (c); and switch the query between plain and not plain (d).
// Request header maps alternate between nil and shared, from the first
// flow on. Flow IDs continue from lastID.
func repeatRun(lastID int64, t0 time.Time, shared http.Header) *RunData {
	base := url.URL{Scheme: "http", Host: "rep.example", Path: "/a/b", RawQuery: "q=1"}
	edits := []func(u *url.URL){
		nil,
		func(u *url.URL) { u.Scheme = "https" }, // (b)
		nil,
		func(u *url.URL) { u.Host = "rep2.example" },
		func(u *url.URL) { u.Host = "[::1]" }, // not plain, but round-trips
		nil,
		func(u *url.URL) { u.Path = "/a/c" },
		func(u *url.URL) { u.Path = "" },
		func(u *url.URL) { u.RawQuery = "q=2" },
		nil,
		func(u *url.URL) { u.Fragment = "frag" }, // (c)
		nil,
		func(u *url.URL) { u.RawPath = "/a%2Fb" },
		nil,
		func(u *url.URL) { u.RawQuery = "" },
		func(u *url.URL) { u.RawQuery, u.ForceQuery = "", true },
		func(u *url.URL) { u.RawQuery = "" },
		func(u *url.URL) { u.RawQuery = "q=1#x" }, // (d)
		nil,
		func(u *url.URL) { u.RawQuery = "q=1#x" },
		func(u *url.URL) { u.RawQuery = "q=2#x" },
		nil,
	}
	run := &RunData{Name: "Repeats", Date: t0}
	for i, edit := range edits {
		u := base
		if edit != nil {
			edit(&u)
		}
		u.Scheme, u.Host, u.Path, u.RawQuery = strings.Clone(u.Scheme), strings.Clone(u.Host), strings.Clone(u.Path), strings.Clone(u.RawQuery)
		f := &proxy.Flow{
			ID: lastID + int64(i) + 1, Time: t0.Add(time.Duration(i) * time.Second),
			Method: strings.Clone("GET"), URL: &u, StatusCode: 200,
			Channel: strings.Clone("Das Erste"), ChannelID: strings.Clone("sid-0"),
		}
		if i%2 == 1 {
			f.RequestHeaders = shared
		}
		run.Flows = append(run.Flows, f)
	}
	return run
}

// writerCheckpoint puts the fixture's runs into checkpoint cells.
func writerCheckpoint(ds *Dataset) *Checkpoint {
	cp := sampleCheckpoint()
	cp.Cells = nil
	for i, r := range ds.Runs {
		cp.Cells = append(cp.Cells, &CheckpointCell{Shard: 0, RunIndex: i, Run: r.Name, Data: r})
	}
	return cp
}

// serialSnapshot is what the reference writer writes for ds's snapshot.
func serialSnapshot(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	lead, trail := ds.snapshotSections()
	if err := writeContainerSerial(&buf, lead, ds.Runs, trail); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkedWriterMatchesSerial: at every GOMAXPROCS, a snapshot, the
// digest, SaveDigest and a checkpoint container come out exactly as the
// serial reference writes them.
func TestChunkedWriterMatchesSerial(t *testing.T) {
	ds := writerDataset(t)
	cp := writerCheckpoint(ds)
	wantSnap := serialSnapshot(t, ds)
	var runsOnly, wantCP bytes.Buffer
	if err := writeContainerSerial(&runsOnly, nil, ds.Runs, nil); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(runsOnly.Bytes())
	wantDigest := hex.EncodeToString(sum[:])
	if err := writeContainerSerial(&wantCP, []jsonSection{{secCheckpoint, cp}}, ds.Runs, nil); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		var snap bytes.Buffer
		if err := Save(&snap, ds, FormatSnapshot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), wantSnap) {
			t.Errorf("GOMAXPROCS %d: snapshot differs from the serial writer's (%d vs %d bytes)", procs, snap.Len(), len(wantSnap))
		}
		if got := mustDigest(t, ds); got != wantDigest {
			t.Errorf("GOMAXPROCS %d: digest %s, serial %s", procs, got, wantDigest)
		}
		snap.Reset()
		got, err := SaveDigest(&snap, ds)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantDigest || !bytes.Equal(snap.Bytes(), wantSnap) {
			t.Errorf("GOMAXPROCS %d: SaveDigest gives digest %s and %d bytes, serial %s and %d bytes",
				procs, got, snap.Len(), wantDigest, len(wantSnap))
		}
		var ckpt bytes.Buffer
		if err := WriteCheckpoint(&ckpt, cp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.Bytes(), wantCP.Bytes()) {
			t.Errorf("GOMAXPROCS %d: checkpoint differs from the serial writer's", procs)
		}
	}

	// The fixture loads back to itself and re-saves to the same bytes.
	loaded, err := Load(bytes.NewReader(wantSnap))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(t, loaded); !bytes.Equal(got, wantSnap) {
		t.Error("the reloaded fixture re-saves to other bytes")
	}
}

// recordingWriter records the size of every Write it is given.
type recordingWriter struct {
	bytes.Buffer
	sizes []int
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestWriterWriteSequence: the destination sees the serial writer's
// sequence of writes, each run section whole, so a buffer that grows with
// its writes ends with the same capacity. The fixture's largest run
// section outgrows the 64 KiB write buffer.
func TestWriterWriteSequence(t *testing.T) {
	ds := writerDataset(t)
	var want, got recordingWriter
	lead, trail := ds.snapshotSections()
	if err := writeContainerSerial(&want, lead, ds.Runs, trail); err != nil {
		t.Fatal(err)
	}
	if err := Save(&got, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	if slices.Max(want.sizes) <= 1<<16 {
		t.Fatalf("no write above the buffer size: %v", want.sizes)
	}
	if !slices.Equal(got.sizes, want.sizes) {
		t.Errorf("write sizes %v, serial writer %v", got.sizes, want.sizes)
	}
	if got.Cap() != want.Cap() {
		t.Errorf("destination capacity %d, serial writer %d", got.Cap(), want.Cap())
	}
}
