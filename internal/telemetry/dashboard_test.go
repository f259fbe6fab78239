package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestHandlerEmptyPaths covers the degenerate handler inputs: a nil
// registry and a registry with nothing recorded must both serve valid
// (empty) JSON with a 200, never an error or truncated body.
func TestHandlerEmptyPaths(t *testing.T) {
	for name, reg := range map[string]*Registry{
		"nil-registry":   nil,
		"empty-registry": New(Options{Shards: 1}),
	} {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d", rec.Code)
			}
			var snap Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Fatalf("body not valid JSON: %v\n%s", err, rec.Body.String())
			}
			if !reflect.DeepEqual(snap, Snapshot{}) {
				t.Fatalf("empty registry served data: %+v", snap)
			}
		})
	}
}

// closeRecorder wraps a buffer and records whether Close was called.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestLineSinkFlushAndClose(t *testing.T) {
	var cr closeRecorder
	sink := NewLineSink(&cr)
	r := New(Options{Shards: 1})
	r.Counter("n").Add(0, 1)
	if err := sink.Emit(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(cr.String(), "\n") {
		t.Fatalf("flushed output not line-terminated: %q", cr.String())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !cr.closed {
		t.Fatal("Close did not close the closable destination")
	}

	// A bare writer (no io.Closer) is flushed and left alone.
	var buf bytes.Buffer
	plain := NewLineSink(&buf)
	if err := plain.Emit(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"n":1`) {
		t.Fatalf("close lost the buffered snapshot: %q", buf.String())
	}

	var nilSink *LineSink
	if err := nilSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nilSink.Close(); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails every write — the sink must surface the error.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestLineSinkSurfacesWriteErrors(t *testing.T) {
	sink := NewLineSink(errWriter{})
	err := sink.Emit(&Snapshot{})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Emit on failing writer: %v", err)
	}
}

func TestDashboardRoutes(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Counter("proxy_flows_recorded").Add(0, 7)
	srv := httptest.NewServer(Dashboard(r, DashboardOptions{}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "hbbtvlab campaign dashboard") {
		t.Fatalf("/ = %d, body %.80q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/ content type = %q", ct)
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, body = get("/telemetry")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/telemetry = %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["proxy_flows_recorded"] != 7 {
		t.Fatalf("/telemetry counters = %+v", snap.Counters)
	}

	if resp, _ = get("/no-such-page"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", resp.StatusCode)
	}

	// pprof is opt-in: absent by default, mounted with EnablePprof.
	if resp, _ = get("/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof mounted without opt-in: %d", resp.StatusCode)
	}
	prof := httptest.NewServer(Dashboard(r, DashboardOptions{EnablePprof: true}))
	defer prof.Close()
	resp, err := prof.Client().Get(prof.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof opt-in = %d, want 200", resp.StatusCode)
	}
}

// TestDashboardSSE reads the first two frames off the /events stream and
// checks they are well-formed `data: {json}` LiveView frames reflecting
// the registry: its counters, and its completed spans with the notes
// annotated on them while they were open.
func TestDashboardSSE(t *testing.T) {
	r := New(Options{Shards: 1})
	sh := r.Shard(0, fixedNow(time.Date(2023, 8, 21, 17, 0, 0, 0, time.UTC)))
	sh.Counter("core_channels_visited").Inc()
	visit := sh.StartSpan(SpanVisit, "ch1")
	sh.AnnotateSpan(EventFault, "http ch1")
	visit.End()

	srv := httptest.NewServer(Dashboard(r, DashboardOptions{Interval: 10 * time.Millisecond}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	scanner := bufio.NewScanner(resp.Body)
	frames := 0
	for scanner.Scan() && frames < 2 {
		line := scanner.Text()
		if line == "" {
			continue // frame separator
		}
		payload, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		var view LiveView
		if err := json.Unmarshal([]byte(payload), &view); err != nil {
			t.Fatalf("frame %d not valid JSON: %v", frames, err)
		}
		if view.Counters["core_channels_visited"] != 1 {
			t.Fatalf("frame counters = %+v", view.Counters)
		}
		if len(view.Spans) != 1 || view.Spans[0].Kind != SpanVisit {
			t.Fatalf("frame spans = %+v", view.Spans)
		}
		if notes := view.Spans[0].Notes; len(notes) != 1 ||
			notes[0].Kind != EventFault || notes[0].Detail != "http ch1" {
			t.Fatalf("frame span notes = %+v, want the fault annotated on the open span", notes)
		}
		frames++
	}
	if frames < 2 {
		t.Fatalf("stream ended after %d frame(s): %v", frames, scanner.Err())
	}
}
