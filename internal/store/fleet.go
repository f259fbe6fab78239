package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// This file is the fleet layer of the measurement engine: the campaign
// identity (Campaign) that shard manifests and checkpoint journals share,
// the shard manifest that makes a persisted shard dataset
// self-describing, the content-addressed dedup tables that keep K shard
// loads from holding K copies of identical bodies and header blocks, and
// the manifest-verified merge (MergeShards) that recombines shard
// datasets — produced by independent collector processes — into the
// byte-identical dataset a single-process sharded run yields.
//
// The merge's correctness contract mirrors MergeRunShards': every rule
// depends only on the shard index and the canonical channel order, both
// recorded in the manifest, so the merged dataset is independent of which
// collector finished first, which machine it ran on, and in which order
// the shard files are handed to the merge.

// Campaign is a campaign's identity: its shard count, the study
// fingerprint and the canonical channel order. It is the one record that
// says which campaign a persisted piece of it belongs to: a shard
// manifest and every checkpoint journal frame carry it, and every reader
// of either checks it with Diff before trusting what it describes.
type Campaign struct {
	// Shards is the campaign's shard count: a fleet's width, or an
	// in-process campaign's effective shard count.
	Shards int `json:"shards"`
	// Params fingerprints the study configuration.
	Params StudyParams `json:"params"`
	// ChannelOrder is the full canonical channel order (the funnel's
	// output), which the merge needs to interleave shard data back into
	// single-process order. Every shard of a campaign derives the same
	// order from the same seed, so each carries a complete copy.
	ChannelOrder []string `json:"channelOrder"`
	// OrderDigest is ChannelOrderDigest(ChannelOrder) — the cheap
	// cross-shard identity check.
	OrderDigest string `json:"orderDigest"`
}

// Diff names the first field in which o differs from c — a study
// parameter ("seed", "scale", "probe watch time", "run specs", "fault
// config", "retry policy"), then "shard count", then "channel order" —
// or returns "" when both describe the same campaign. The parameters
// come first because they decide the world, and with it the channel
// order and an in-process campaign's effective shard count.
func (c *Campaign) Diff(o *Campaign) string {
	p, q := &c.Params, &o.Params
	switch {
	case p.Seed != q.Seed:
		return "seed"
	case p.Scale != q.Scale:
		return "scale"
	case p.ProbeWatchNS != q.ProbeWatchNS:
		return "probe watch time"
	case p.RunsDigest != q.RunsDigest:
		return "run specs"
	case p.FaultsDigest != q.FaultsDigest:
		return "fault config"
	case p.Retry != q.Retry:
		return "retry policy"
	case c.Shards != o.Shards:
		return "shard count"
	case c.OrderDigest != o.OrderDigest:
		return "channel order"
	}
	return ""
}

// ShardManifest makes a persisted shard dataset self-describing: it pins
// the shard's position in the campaign partition and the campaign it
// belongs to, so shards from mismatched configurations are rejected at
// merge time instead of silently producing a dataset no single-process
// run could have measured. Only a collector that finished stamps one.
type ShardManifest struct {
	// Shard locates the dataset in the campaign partition: the dataset
	// holds exactly the channels at canonical indices i with
	// i % min(Shards, len(ChannelOrder)) == Shard — the same clamped
	// strided partition the in-process engine (core.Pool) uses.
	Shard int `json:"shard"`
	Campaign
	// Coverage summarizes the per-channel outcomes of each run the shard
	// executed, so the merge can verify the shard measured exactly its
	// assigned partition.
	Coverage []ShardRunCoverage `json:"coverage,omitempty"`
}

// AssignedChannels returns how many of the canonical order's channels the
// manifest's shard owns under the engine's clamped strided partition.
func (m *ShardManifest) AssignedChannels() int {
	return assignedChannels(len(m.ChannelOrder), m.Shard, m.Shards)
}

// assignedChannels counts the canonical indices i in [0, channels) with
// i % eff == shard, where eff is the shard count clamped exactly like
// core.Pool clamps it (to the channel count, never below 1).
func assignedChannels(channels, shard, shards int) int {
	eff := shards
	if eff > channels {
		eff = channels
	}
	if eff < 1 {
		eff = 1
	}
	if shard >= eff {
		return 0
	}
	n := 0
	for i := shard; i < channels; i += eff {
		n++
	}
	return n
}

// StudyParams is the campaign's fingerprint of everything that defines
// its results besides the partition itself. Fields are flat and
// comparable; composite configuration (run specs, fault plans) is carried
// as a digest so extending those types can never silently weaken the
// identity check.
type StudyParams struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// ProbeWatchNS is the exploratory per-channel watch time in
	// nanoseconds (it shapes the funnel, hence the channel order).
	ProbeWatchNS int64 `json:"probeWatchNs"`
	// RunsDigest fingerprints the measurement-run specs (names, dates,
	// buttons, watch times, screenshot cadence).
	RunsDigest string `json:"runsDigest"`
	// FaultsDigest fingerprints the effective fault-injection config;
	// empty means the reliable world.
	FaultsDigest string `json:"faultsDigest,omitempty"`
	// Retry pins the resilience policy (attempt budgets and backoff shape
	// change which channels end failed, and on which attempt).
	Retry RetryParams `json:"retry"`
}

// RetryParams mirrors core.RetryPolicy in manifest form (store cannot
// import core).
type RetryParams struct {
	MaxAttempts     int   `json:"maxAttempts"`
	BackoffNS       int64 `json:"backoffNs"`
	BackoffMaxNS    int64 `json:"backoffMaxNs"`
	VisitDeadlineNS int64 `json:"visitDeadlineNs"`
	QuarantineAfter int   `json:"quarantineAfter"`
}

// ShardRunCoverage summarizes one run's per-channel outcomes on one shard.
type ShardRunCoverage struct {
	Run  RunName   `json:"run"`
	Date time.Time `json:"date"`
	// Channels is the number of channels the shard considered in this run
	// (its partition size); the outcome tallies below sum to it.
	Channels    int `json:"channels"`
	OK          int `json:"ok"`
	Failed      int `json:"failed,omitempty"`
	Skipped     int `json:"skipped,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
}

// CoverageFromRun tallies a run's outcome records into manifest form.
func CoverageFromRun(run *RunData) ShardRunCoverage {
	cov := ShardRunCoverage{Run: run.Name, Date: run.Date, Channels: len(run.Outcomes)}
	for _, o := range run.Outcomes {
		switch o.Status {
		case OutcomeFailed:
			cov.Failed++
		case OutcomeSkipped:
			cov.Skipped++
		case OutcomeQuarantined:
			cov.Quarantined++
		default:
			cov.OK++
		}
	}
	return cov
}

// ChannelOrderDigest returns a hex SHA-256 over a canonical channel-name
// order. Names are length-framed so the digest is injective over the list
// structure, not just the concatenation.
func ChannelOrderDigest(order []string) string {
	h := sha256.New()
	var frame [8]byte
	for _, name := range order {
		n := len(name)
		for i := range frame {
			frame[i] = byte(n >> (8 * i))
		}
		h.Write(frame[:])
		h.Write([]byte(name))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Dedup is a content-addressed table for response/request bodies and
// header blocks, shared across shard-dataset loads so that K shards
// carrying the same tracker payloads and header shapes collapse to one
// in-memory copy instead of K. Bodies are keyed by SHA-256 of their
// content, header blocks by proxy.AppendHeaderKey. The returned
// canonical copies are shared — loaded datasets are read-only downstream,
// which is what makes the sharing safe (the snapshot loader already
// shares header maps between flows on the same grounds).
//
// A Dedup is not safe for concurrent use; the fleet loader loads shard
// files serially (each load parallelizes internally) so no lock is needed.
type Dedup struct {
	blobs   map[[sha256.Size]byte][]byte
	headers map[string]http.Header
	key     []byte // scratch for header-block keys
	stats   DedupStats
}

// DedupStats reports what a Dedup table absorbed and how much it shared.
type DedupStats struct {
	// Blobs / BlobBytes count every body offered to the table;
	// BlobsShared / BlobBytesShared the subset answered from it.
	Blobs           int
	BlobsShared     int
	BlobBytes       int64
	BlobBytesShared int64
	// Headers / HeadersShared count distinct header blocks offered and
	// answered from the table.
	Headers       int
	HeadersShared int
}

// BlobRatio returns the fraction of offered body bytes that were answered
// from the table instead of retained again (0 when nothing was offered).
func (s DedupStats) BlobRatio() float64 {
	if s.BlobBytes == 0 {
		return 0
	}
	return float64(s.BlobBytesShared) / float64(s.BlobBytes)
}

// NewDedup returns an empty content-addressed dedup table.
func NewDedup() *Dedup {
	return &Dedup{
		blobs:   make(map[[sha256.Size]byte][]byte, 1024),
		headers: make(map[string]http.Header, 256),
	}
}

// Blob returns the canonical copy of b, registering it on first sight.
// Empty bodies pass through unchanged.
func (d *Dedup) Blob(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	d.stats.Blobs++
	d.stats.BlobBytes += int64(len(b))
	key := sha256.Sum256(b)
	if canon, ok := d.blobs[key]; ok {
		d.stats.BlobsShared++
		d.stats.BlobBytesShared += int64(len(b))
		return canon
	}
	d.blobs[key] = b
	return b
}

// Header returns the canonical http.Header equal to h, registering h on
// first sight. Nil and empty headers pass through unchanged.
func (d *Dedup) Header(h http.Header) http.Header {
	if len(h) == 0 {
		return h
	}
	d.stats.Headers++
	d.key = proxy.AppendHeaderKey(d.key[:0], h)
	if canon, ok := d.headers[string(d.key)]; ok {
		d.stats.HeadersShared++
		return canon
	}
	d.headers[string(d.key)] = h
	return h
}

// Stats returns the table's running tallies.
func (d *Dedup) Stats() DedupStats { return d.stats }

// Apply rewrites a loaded dataset in place so its bodies and header maps
// reference the table's canonical copies. The snapshot loader dedups
// during decode (per distinct table entry); Apply is the per-flow
// fallback for datasets loaded from formats without content tables
// (gzip-JSON).
func (d *Dedup) Apply(ds *Dataset) {
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			f.RequestBody = d.Blob(f.RequestBody)
			f.ResponseBody = d.Blob(f.ResponseBody)
			f.RequestHeaders = d.Header(f.RequestHeaders)
			f.ResponseHeaders = d.Header(f.ResponseHeaders)
		}
	}
}

// MergeShards verifies the shard manifests of K shard datasets and merges
// them into one complete dataset: the manifests must describe one
// Campaign and together cover shards 0..N-1 exactly once, and every shard
// must hold every run another shard holds. Runs are aligned by name and
// recombined through the canonical-order merge (MergeRunShards), so the
// result is byte-identical — Digest and all — to the dataset a
// single-process sharded run (core.Pool with Shards = N) of the same
// study produces, degraded campaigns included.
//
// The shards' telemetry snapshots and span traces are merged too (see
// telemetry.MergeShardSnapshots/MergeShardTraces): the merged dataset
// carries fleet-wide counters and spans equal to the single-process
// run's, restricted to the shard slots.
//
// tele (typically an engine-controller handle) observes the per-run merge
// phases; nil disables instrumentation. Its spans and counters are local
// to the merging process and are not embedded in the merged dataset (they
// may even be wall-clock-timestamped, as in hbbtv-merge). The merge is
// all-or-nothing: a cancelled ctx returns nil and the context's error.
func MergeShards(ctx context.Context, tele *telemetry.Shard, datasets []*Dataset) (*Dataset, error) {
	if len(datasets) == 0 {
		return nil, errors.New("store: merge: no shard datasets given")
	}
	for i, ds := range datasets {
		if ds == nil {
			return nil, fmt.Errorf("store: merge: dataset %d is nil", i)
		}
		if ds.Shard == nil {
			return nil, fmt.Errorf("store: merge: dataset %d has no shard manifest: it is not a shard dataset, or its collector did not finish", i)
		}
	}

	ref := datasets[0].Shard
	n := ref.Shards
	if n < 1 {
		return nil, fmt.Errorf("store: merge: dataset 0: invalid shard count %d", n)
	}
	byShard := make([]*Dataset, n)
	for i, ds := range datasets {
		m := ds.Shard
		if field := ref.Diff(&m.Campaign); field != "" {
			return nil, fmt.Errorf("store: merge: manifest mismatch: %s differs between dataset 0 (shard %d of %d shards) and dataset %d (shard %d of %d shards)",
				field, ref.Shard, n, i, m.Shard, m.Shards)
		}
		if m.Shard < 0 || m.Shard >= n {
			return nil, fmt.Errorf("store: merge: dataset %d: shard index %d out of range [0, %d)", i, m.Shard, n)
		}
		if byShard[m.Shard] != nil {
			return nil, fmt.Errorf("store: merge: duplicate shard %d of %d", m.Shard, n)
		}
		byShard[m.Shard] = ds
	}
	var missing []int
	for s := range byShard {
		if byShard[s] == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("store: merge: shard coverage incomplete: missing shard(s) %v of %d", missing, n)
	}

	// Coverage cross-check: each shard's runs must have considered exactly
	// the channels its partition assigns.
	for s, ds := range byShard {
		want := assignedChannels(len(ref.ChannelOrder), s, n)
		for _, cov := range ds.Shard.Coverage {
			if cov.Channels != want {
				return nil, fmt.Errorf("store: merge: shard %d: run %s covers %d channel(s), its partition assigns %d",
					s, cov.Run, cov.Channels, want)
			}
		}
	}

	// Runs align by name, in first-appearance order over the shards in
	// shard order — for a complete campaign that is exactly the spec order
	// every shard executed. A shard that lacks one of them stopped before
	// it: collectors stamp no manifest then, but files written by earlier
	// versions carry one, and merging such a shard would leave that run's
	// channels unmeasured.
	var runOrder []RunName
	seen := make(map[RunName]bool, 8)
	for _, ds := range byShard {
		for _, run := range ds.Runs {
			if !seen[run.Name] {
				seen[run.Name] = true
				runOrder = append(runOrder, run.Name)
			}
		}
	}
	for s, ds := range byShard {
		for _, name := range runOrder {
			if ds.Run(name) == nil {
				return nil, fmt.Errorf("store: merge: shard %d has no %s run, which another shard holds: its collector did not finish", s, name)
			}
		}
	}

	out := &Dataset{}
	for _, name := range runOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		shardRuns := make([]*RunData, n)
		for s, ds := range byShard {
			shardRuns[s] = ds.Run(name)
		}
		out.Runs = append(out.Runs, MergeRunShards(ref.ChannelOrder, shardRuns, tele))
	}

	// Carry the shards' telemetry snapshots and span traces into the
	// merged dataset under the slot-restriction rule (each shard process
	// re-runs the channel funnel on its slot 0, so only the slot matching
	// the manifest's shard index contributes — see telemetry.MergeShardSnapshots).
	shardIdx := make([]int, n)
	snaps := make([]*telemetry.Snapshot, n)
	traces := make([]*telemetry.Trace, n)
	for s, ds := range byShard {
		shardIdx[s] = ds.Shard.Shard
		snaps[s] = ds.Telemetry
		traces[s] = ds.Trace
	}
	out.Telemetry = telemetry.MergeShardSnapshots(shardIdx, snaps)
	out.Trace = telemetry.MergeShardTraces(shardIdx, traces)
	return out, nil
}
