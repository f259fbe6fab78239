package synth

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// forkPaths are the paths the scripted sequence requests on every host:
// tracker pixels, scripts, collectors and the sync redirect (each mints
// IDs, short IDs or timestamp cookies), application documents and
// policies, and the CDN and default endpoints.
var forkPaths = []string{
	"/", "/index.html", "/mediathek.html", "/datenschutz.html",
	"/px?c=ch01", "/t?site=ch02", "/i", "/match?puid=1",
	"/js", "/fp.js", "/analytics.js", "/collect", "/fp", "/sync",
	"/app.css", "/logo.png", "/epg.json",
}

// drive sends the scripted sequence to every registered host of w — a
// wildcard as its www subdomain — advancing clk by a second per request,
// and returns every response serialized: status, headers (Set-Cookie
// included) and body.
func drive(t *testing.T, w *World, clk *clock.Virtual) []string {
	t.Helper()
	tr := &hostnet.Transport{Net: w.Internet}
	var out []string
	for _, host := range w.Internet.Hosts() {
		host = strings.Replace(host, "*.", "www.", 1)
		for _, path := range forkPaths {
			req, err := http.NewRequest(http.MethodGet, "http://"+host+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatalf("%s%s: %v", host, path, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			fmt.Fprintf(&b, "%s%s %d\n", host, path, resp.StatusCode)
			resp.Header.Write(&b)
			resp.Body.Close()
			b.Write(body)
			out = append(out, b.String())
			clk.Sleep(time.Second)
		}
	}
	return out
}

// sameAnswers fails the test at the first response that differs.
func sameAnswers(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: response %d differs:\n%s\nwant\n%s", what, i, got[i], want[i])
		}
	}
}

// TestForkAnswersAsFreshBuild: a fork of a world that has already served
// requests answers a scripted sequence — on every registered host, twice,
// so ID counters and timestamp cookies advance — byte for byte as a
// fresh Build of the same config does, and ends in the same tracker
// state.
func TestForkAnswersAsFreshBuild(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.05}
	parentClk := testClock()
	parent := Build(cfg, parentClk)
	drive(t, parent, parentClk) // the funnel's traffic, before the fork

	forkClk, freshClk := testClock(), testClock()
	fork := parent.Fork(forkClk)
	fresh := Build(cfg, freshClk)
	if !reflect.DeepEqual(fork.Internet.Hosts(), fresh.Internet.Hosts()) {
		t.Fatal("fork and fresh build register different hosts")
	}
	for pass := 0; pass < 2; pass++ {
		sameAnswers(t, fmt.Sprintf("pass %d", pass), drive(t, fork, forkClk), drive(t, fresh, freshClk))
	}
	got, want := fork.TrackerStates(), fresh.TrackerStates()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fork tracker states differ from a fresh build's:\n%v\n%v", got, want)
	}
	var draws uint64
	var ids int64
	for _, st := range got {
		draws += st.Draws
		ids += st.NextID
	}
	if draws == 0 || ids == 0 {
		t.Fatalf("the script advanced no tracker state (draws %d, short IDs %d)", draws, ids)
	}
}

// TestForkIsolated: driving one fork moves neither its parent's tracker
// state nor a sibling fork's.
func TestForkIsolated(t *testing.T) {
	parent := buildSmall(t, 42)
	a, b := parent.Fork(testClock()), parent.Fork(testClock())
	parentBefore, bBefore, aBefore := parent.TrackerStates(), b.TrackerStates(), a.TrackerStates()
	drive(t, a, testClock())
	if reflect.DeepEqual(a.TrackerStates(), aBefore) {
		t.Fatal("driving the fork did not move its own tracker state")
	}
	if !reflect.DeepEqual(parent.TrackerStates(), parentBefore) {
		t.Error("driving a fork moved its parent's tracker state")
	}
	if !reflect.DeepEqual(b.TrackerStates(), bBefore) {
		t.Error("driving a fork moved a sibling fork's tracker state")
	}
}

// TestForkRestoreTrackerStates: a fork restores a captured tracker state
// as a fresh build does — both then answer exactly as the world the
// state was captured on — and both reject a state that does not line up
// with their services.
func TestForkRestoreTrackerStates(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.05}
	parent := Build(cfg, testClock())
	srcClk := testClock()
	src := parent.Fork(srcClk)
	drive(t, src, srcClk)
	states := src.TrackerStates()

	forkClk, freshClk := testClock(), testClock()
	fork, fresh := parent.Fork(forkClk), Build(cfg, freshClk)
	for _, w := range []*World{fork, fresh} {
		if err := w.RestoreTrackerStates(states); err != nil {
			t.Fatal(err)
		}
	}
	forkClk.Set(srcClk.Now())
	freshClk.Set(srcClk.Now())
	want := drive(t, src, srcClk)
	sameAnswers(t, "restored fork", drive(t, fork, forkClk), want)
	sameAnswers(t, "restored fresh build", drive(t, fresh, freshClk), want)

	short := states[:len(states)-1]
	renamed := append([]store.TrackerState(nil), states...)
	renamed[0].Domain = "elsewhere.example"
	for name, w := range map[string]*World{"fork": parent.Fork(testClock()), "fresh build": Build(cfg, testClock())} {
		for _, bad := range [][]store.TrackerState{short, renamed} {
			if err := w.RestoreTrackerStates(bad); err == nil {
				t.Errorf("%s restored a tracker state that does not line up with its services", name)
			}
		}
	}
}

// worldSink keeps the benchmarked worlds reachable.
var worldSink *World

// BenchmarkWorldFork times a shard world made both ways — a fresh Build
// and a Fork of an already built world — at quarter and paper scale,
// and reports the live heap one more world adds.
func BenchmarkWorldFork(b *testing.B) {
	liveMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	for _, scale := range []float64{0.25, 1} {
		cfg := Config{Seed: 1, Scale: scale}
		parent := Build(cfg, testClock())
		ways := []struct {
			name  string
			world func() *World
		}{
			{"build", func() *World { return Build(cfg, testClock()) }},
			{"fork", func() *World { return parent.Fork(testClock()) }},
		}
		for _, way := range ways {
			b.Run(fmt.Sprintf("%s/scale=%g", way.name, scale), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					worldSink = way.world()
				}
				b.StopTimer()
				worldSink = nil
				before := liveMB()
				worldSink = way.world()
				b.ReportMetric(liveMB()-before, "live-MB")
			})
		}
	}
}
