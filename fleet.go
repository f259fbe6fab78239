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

// This file is the fleet topology's library surface: a collector's Plan
// (Plan.Of >= 1) stamps its partition of a campaign with a
// self-describing store.ShardManifest, and MergeContext recombines K shard
// datasets into the dataset the single-process campaign would have
// produced, byte-identical by Digest.

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
