package hbbtvlab

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// This file is the fleet topology's library surface: ExecuteShard runs
// one collector's partition of a campaign and stamps the result with a
// self-describing store.ShardManifest; Merge recombines K shard datasets
// into the dataset the single-process campaign would have produced,
// byte-identical by Digest. Both follow the package's convenience/context
// pairing convention (see the package doc).

// ExecuteShard is ExecuteShardContext with context.Background().
func (s *Study) ExecuteShard(shard, of int) (*store.Dataset, error) {
	return s.ExecuteShardContext(context.Background(), shard, of)
}

// ExecuteShardContext performs the configured measurement runs over the
// shard-th of of strided partitions of the selected channel order — the
// exact partition, framework and seed the in-process campaign with
// Options.Shards = of gives its shard-th shard — and returns a shard
// dataset carrying a store.ShardManifest. Merging the datasets of shards
// 0..of-1 (Merge, or the hbbtv-merge command) yields a dataset whose
// Digest is byte-identical to that single-process run's.
//
// When of exceeds the channel count the partition clamps exactly like the
// in-process engine's: shards at or beyond the channel count own no
// channels and return well-formed empty runs that merge neutrally.
//
// When Options.Telemetry is set, the registry must have at least of shard
// slots (build it as NewTelemetry(Options{Shards: of})); the shard's
// instrumentation lands in slot shard, mirroring the in-process engine.
//
// Like ExecuteRunsContext, per-channel degradation (see DegradedOnly)
// does not abort the shard: failed visits are recorded as outcomes, the
// remaining runs proceed, and the joined degradation errors are returned
// with the well-formed dataset. A cancelled context returns the partial
// dataset with the context's error; a partial shard fails the merge's
// coverage verification rather than corrupting the campaign.
func (s *Study) ExecuteShardContext(ctx context.Context, shard, of int) (*store.Dataset, error) {
	return s.executeShard(ctx, shard, of, nil)
}

// executeShard checks a fleet collector's shard request and runs it as
// its campaign plan; co, when non-nil, journals the shard's cells
// (ExecuteShardResumable).
func (s *Study) executeShard(ctx context.Context, shard, of int, co *CheckpointOptions) (*store.Dataset, error) {
	if of < 1 {
		return nil, fmt.Errorf("hbbtvlab: ExecuteShard: shard count %d must be >= 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("hbbtvlab: ExecuteShard: shard index %d out of range [0, %d)", shard, of)
	}
	if tr := s.opts.Telemetry; tr != nil && tr.Shards() <= shard {
		return nil, fmt.Errorf("hbbtvlab: ExecuteShard: Options.Telemetry has %d shard slot(s), shard %d of %d needs %d (build the registry with NewTelemetry(Options{Shards: %d}))",
			tr.Shards(), shard, of, shard+1, of)
	}
	return s.campaign(ctx, s.opts.Runs, of, shard, co)
}

// finishShard stamps the dataset with its shard manifest and the final
// telemetry snapshot.
func (s *Study) finishShard(ds *store.Dataset, shard, of int, channels []*dvb.Service) error {
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}
	params, err := s.studyParams()
	if err != nil {
		return err
	}
	m := &store.ShardManifest{
		Shard:        shard,
		Shards:       of,
		Params:       params,
		ChannelOrder: order,
		OrderDigest:  store.ChannelOrderDigest(order),
	}
	for _, run := range ds.Runs {
		m.Coverage = append(m.Coverage, store.CoverageFromRun(run))
	}
	ds.Shard = m
	s.attachTelemetry(ds)
	return nil
}

// studyParams fingerprints the study's effective configuration for the
// shard manifest. Composite configuration (run specs, fault plans) is
// digested so the manifest stays flat and comparable.
func (s *Study) studyParams() (store.StudyParams, error) {
	p := store.StudyParams{
		Seed:         s.opts.Seed,
		Scale:        s.opts.Scale,
		ProbeWatchNS: int64(s.opts.ProbeWatch),
		RunsDigest:   hashRunSpecs(s.opts.Runs),
		Retry: store.RetryParams{
			MaxAttempts:     s.opts.Retry.MaxAttempts,
			BackoffNS:       int64(s.opts.Retry.Backoff),
			BackoffMaxNS:    int64(s.opts.Retry.BackoffMax),
			VisitDeadlineNS: int64(s.opts.Retry.VisitDeadline),
			QuarantineAfter: s.opts.Retry.QuarantineAfter,
		},
	}
	if s.opts.Faults != nil {
		// NewStudyChecked stored the effective (seed-derived) config, and
		// encoding/json writes map keys sorted, so the digest is
		// deterministic and covers what actually ran.
		raw, err := json.Marshal(s.opts.Faults)
		if err != nil {
			return p, fmt.Errorf("hbbtvlab: shard manifest: marshal fault config: %w", err)
		}
		sum := sha256.Sum256(raw)
		p.FaultsDigest = hex.EncodeToString(sum[:])
	}
	return p, nil
}

// hashRunSpecs digests the run specs field by field (length-framed), so
// any spec change — name, date, button, watch time, screenshot cadence —
// changes the fingerprint.
func hashRunSpecs(specs []core.RunSpec) string {
	h := sha256.New()
	for _, spec := range specs {
		fmt.Fprintf(h, "%d:%s|%d|%d:%s|%d|%d;",
			len(spec.Name), spec.Name, spec.Date.UnixNano(),
			len(spec.Button), spec.Button, spec.Watch, spec.ShotEvery)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Merge is MergeContext with context.Background().
func Merge(datasets ...*store.Dataset) (*store.Dataset, error) {
	return MergeContext(context.Background(), datasets...)
}

// MergeContext verifies the shard manifests of the given shard datasets —
// identical study parameters and channel order, shards 0..N-1 covered
// exactly once — and merges them into one complete dataset whose Digest
// is byte-identical to the single-process campaign of the same study with
// Options.Shards = N (at any Parallelism), fault-degraded campaigns
// included. The merged dataset carries no shard manifest, but it does
// carry the fleet-wide telemetry snapshot and span trace merged from the
// shards (see store.MergeShards). Input order does not matter; the
// manifests place every dataset.
func MergeContext(ctx context.Context, datasets ...*store.Dataset) (*store.Dataset, error) {
	ds, err := store.MergeShards(ctx, nil, datasets)
	if err != nil {
		return nil, fmt.Errorf("hbbtvlab: merge: %w", err)
	}
	return ds, nil
}
