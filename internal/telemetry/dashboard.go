package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"
)

// DashboardOptions configures the live dashboard handler.
type DashboardOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiler exposes stacks and heap contents, so it stays off unless
	// the operator asked for it with -pprof).
	EnablePprof bool
	// Interval is the SSE push period (0 = 1s).
	Interval time.Duration
}

// LiveView is one dashboard frame pushed over the SSE stream: the
// aggregate counters/gauges, the per-shard breakdown, and the recently
// completed spans with their notes (faults, retries, failures,
// quarantines, recovered panics). Flow *rates* are derived client-side
// from successive frames, so the frame itself stays a pure snapshot.
type LiveView struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	Shards   []ShardCounters   `json:"shards,omitempty"`
	Spans    []Span            `json:"spans,omitempty"`
}

// liveTail bounds the span tail carried per SSE frame.
const liveTail = 50

// liveView builds one dashboard frame from the registry's current state.
func liveView(r *Registry) *LiveView {
	v := &LiveView{}
	if snap := r.Snapshot(); snap != nil {
		v.Counters = snap.Counters
		v.Gauges = snap.Gauges
		v.Shards = snap.Shards
	}
	v.Spans = r.RecentSpans(liveTail)
	return v
}

// Dashboard returns the live campaign dashboard behind
// `hbbtv-measure -telemetry-http`: an embedded HTML page on `/` fed by
// the `/events` SSE stream, the raw snapshot on `/telemetry`, a
// `/healthz` liveness probe, and (opt-in) the pprof handlers. Works —
// as everything here — on a nil registry, serving empty frames.
func Dashboard(r *Registry, opts DashboardOptions) http.Handler {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("/telemetry", Handler(r))
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "telemetry: streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		ticker := time.NewTicker(opts.Interval)
		defer ticker.Stop()
		for {
			frame, err := json.Marshal(liveView(r))
			if err != nil {
				return
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			flusher.Flush()
			select {
			case <-req.Context().Done():
				return
			case <-ticker.C:
			}
		}
	})
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// dashboardHTML is the embedded single-page dashboard. Vanilla JS over
// EventSource — no assets, no dependencies, works from a file:// free
// binary on an air-gapped measurement box.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>hbbtvlab campaign</title>
<style>
body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin: 1.2rem 0 0.4rem; color: #9cf; }
table { border-collapse: collapse; } td, th { padding: 0.15rem 0.8rem 0.15rem 0; text-align: left; font-size: 0.85rem; }
th { color: #888; font-weight: normal; } .num { text-align: right; }
#status { color: #888; font-size: 0.8rem; } .bad { color: #f66; } .rate { color: #6f6; }
.bar { background: #345; height: 0.6rem; display: inline-block; vertical-align: middle; }
</style>
</head>
<body>
<h1>hbbtvlab campaign dashboard</h1>
<div id="status">connecting&hellip;</div>
<h2>progress</h2><table id="progress"></table>
<h2>per-shard</h2><table id="shards"></table>
<h2>recent spans</h2><table id="spans"></table>
<script>
"use strict";
let prev = null, prevAt = 0;
const el = id => document.getElementById(id);
const fmt = n => (n === undefined ? "0" : n.toLocaleString("en-US"));
function row(cells, head) {
  const tr = document.createElement("tr");
  for (const c of cells) {
    const td = document.createElement(head ? "th" : "td");
    if (c instanceof Node) td.appendChild(c); else td.textContent = c;
    tr.appendChild(td);
  }
  return tr;
}
function render(v, at) {
  const c = v.counters || {};
  const visited = c["core_channels_visited"] || 0, flows = c["proxy_flows_recorded"] || 0;
  let rate = "";
  if (prev && at > prevAt) {
    const df = flows - ((prev.counters || {})["proxy_flows_recorded"] || 0);
    rate = (df * 1000 / (at - prevAt)).toFixed(0) + " flows/s";
  }
  const prog = el("progress"); prog.replaceChildren();
  prog.appendChild(row(["channels visited", fmt(visited), "flows", fmt(flows), rate], false));
  prog.appendChild(row(["runs completed", fmt(c["core_runs_completed"]),
    "faults", fmt(c["core_faults_injected"])], false));
  prog.appendChild(row(["retried", fmt(c["core_channels_retried"]),
    "failed", fmt(c["core_channels_failed"]),
    "quarantined", fmt(c["core_channels_quarantined"])], false));
  const sh = el("shards"); sh.replaceChildren();
  sh.appendChild(row(["shard", "visited", "flows", "faults", ""], true));
  let maxFlows = 1;
  for (const s of v.shards || []) maxFlows = Math.max(maxFlows, (s.counters || {})["proxy_flows_recorded"] || 0);
  for (const s of v.shards || []) {
    const sc = s.counters || {};
    const bar = document.createElement("span");
    bar.className = "bar";
    bar.style.width = (120 * ((sc["proxy_flows_recorded"] || 0) / maxFlows)).toFixed(0) + "px";
    sh.appendChild(row([s.shard, fmt(sc["core_channels_visited"]), fmt(sc["proxy_flows_recorded"]),
      fmt(sc["core_faults_injected"]), bar], false));
  }
  const sp = el("spans"); sp.replaceChildren();
  sp.appendChild(row(["shard", "kind", "name", "start", "ms", "notes"], true));
  for (const s of (v.spans || []).slice().reverse()) {
    const ms = (new Date(s.end) - new Date(s.start));
    const notes = (s.notes || []).map(n => n.kind + (n.detail ? " " + n.detail : "")).join("; ");
    sp.appendChild(row([s.shard, s.kind, s.name || "", s.start, ms, notes], false));
  }
  prev = v; prevAt = at;
}
const src = new EventSource("/events");
src.onmessage = m => {
  el("status").textContent = "live — " + new Date().toISOString();
  render(JSON.parse(m.data), Date.now());
};
src.onerror = () => { el("status").textContent = "disconnected"; el("status").className = "bad"; };
</script>
</body>
</html>
`
