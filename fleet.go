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

// This file is the fleet topology's library surface: the campaign
// identity a collector's shard manifest and every checkpoint journal
// carry, and MergeContext, which recombines K shard datasets into the
// dataset the single-process campaign would have produced, byte-identical
// by Digest.

// identity is the campaign's store.Campaign over channels as a
// shards-way campaign: the fingerprint of the study's effective
// configuration and the canonical channel order. Composite configuration
// (run specs, fault plans) is digested so the identity stays flat and
// comparable.
func (s *Study) identity(channels []*dvb.Service, shards int) (store.Campaign, error) {
	order := make([]string, len(channels))
	for i, svc := range channels {
		order[i] = svc.Name
	}
	id := store.Campaign{Shards: shards, ChannelOrder: order, OrderDigest: store.ChannelOrderDigest(order)}
	id.Params = store.StudyParams{
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
			return id, fmt.Errorf("hbbtvlab: campaign identity: marshal fault config: %w", err)
		}
		sum := sha256.Sum256(raw)
		id.Params.FaultsDigest = hex.EncodeToString(sum[:])
	}
	return id, nil
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
// one store.Campaign, shards 0..N-1 covered exactly once, every run on
// every shard — and merges them into one complete dataset whose Digest
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
