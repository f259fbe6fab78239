package store

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// outcomeOf returns the named channel's outcome record in run, or nil.
func outcomeOf(run *RunData, channel string) *ChannelOutcome {
	for i := range run.Outcomes {
		if run.Outcomes[i].Channel == channel {
			return &run.Outcomes[i]
		}
	}
	return nil
}

func outcomeDataset() *Dataset {
	ds := sampleDataset()
	ds.Runs[0].Outcomes = []ChannelOutcome{
		{Channel: "KiKA", Status: OutcomeOK, Attempts: 2},
		{Channel: "n-tv", Status: OutcomeOK, Attempts: 1},
		{Channel: "arte", Status: OutcomeFailed, Attempts: 3, Error: "no signal lock"},
		{Channel: "VOX", Status: OutcomeSkipped, Error: "off-air"},
	}
	ds.Runs[1].Outcomes = []ChannelOutcome{
		{Channel: "KiKA", Status: OutcomeOK, Attempts: 1},
		{Channel: "n-tv", Status: OutcomeFailed, Attempts: 3, Error: "timeout"},
		{Channel: "arte", Status: OutcomeQuarantined, Error: "quarantined after 1 consecutive failed runs"},
		{Channel: "VOX", Status: OutcomeSkipped, Error: "off-air"},
	}
	return ds
}

// TestOutcomeSaveLoadRoundTrip: outcome records survive the gzip-JSON
// reader bit-for-bit, and datasets without outcomes (written before
// outcome tracking) still load.
func TestOutcomeSaveLoadRoundTrip(t *testing.T) {
	ds := outcomeDataset()
	loaded, err := Load(bytes.NewReader(referenceGzipJSON(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range ds.Runs {
		if !reflect.DeepEqual(loaded.Runs[i].Outcomes, run.Outcomes) {
			t.Errorf("run %s outcomes drifted:\n%+v\n%+v", run.Name, loaded.Runs[i].Outcomes, run.Outcomes)
		}
	}

	// Pre-outcome dataset: no outcomes in, none out.
	reloaded, err := Load(bytes.NewReader(referenceGzipJSON(t, sampleDataset())))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range reloaded.Runs {
		if len(run.Outcomes) != 0 {
			t.Errorf("run %s grew %d outcome records from nowhere", run.Name, len(run.Outcomes))
		}
	}
}

// TestOutcomesAffectDigest: outcome records are part of the dataset's
// identity — two campaigns that differ only in how channels failed must
// not share a digest.
func TestOutcomesAffectDigest(t *testing.T) {
	a := outcomeDataset()
	b := outcomeDataset()
	b.Runs[0].Outcomes[2].Status = OutcomeSkipped
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Error("datasets with different outcomes share a digest")
	}
}

// TestMergeOutcomesCanonicalOrder: shard outcome records merge into
// canonical channel order regardless of shard layout or per-shard visit
// order.
func TestMergeOutcomesCanonicalOrder(t *testing.T) {
	order := []string{"A", "B", "C", "D", "E"}
	shard0 := &RunData{Name: RunGeneral, Outcomes: []ChannelOutcome{
		{Channel: "E", Status: OutcomeOK, Attempts: 1},
		{Channel: "A", Status: OutcomeFailed, Attempts: 2, Error: "x"},
		{Channel: "C", Status: OutcomeOK, Attempts: 1},
	}}
	shard1 := &RunData{Name: RunGeneral, Outcomes: []ChannelOutcome{
		{Channel: "D", Status: OutcomeSkipped, Error: "off-air"},
		{Channel: "B", Status: OutcomeQuarantined, Error: "q"},
	}}
	for _, shards := range [][]*RunData{
		{shard0, shard1},
		{shard1, shard0},
		{nil, shard0, nil, shard1},
	} {
		merged := MergeRunShards(order, shards, nil)
		if len(merged.Outcomes) != 5 {
			t.Fatalf("merged %d outcomes, want 5", len(merged.Outcomes))
		}
		for i, want := range order {
			if merged.Outcomes[i].Channel != want {
				t.Fatalf("outcome %d = %s, want %s (shard layout %d entries)",
					i, merged.Outcomes[i].Channel, want, len(shards))
			}
		}
		if o := outcomeOf(merged, "B"); o == nil || o.Status != OutcomeQuarantined {
			t.Errorf("outcome B = %+v after merge", o)
		}
	}
}

// TestMergeLoneShardUnchanged: a lone shard's run is the whole run, so
// the merge hands it back as-is — the paper's visit order and flow IDs
// are not canonicalized away. A multi-shard layout with one live shard
// still merges canonically.
func TestMergeLoneShardUnchanged(t *testing.T) {
	order := []string{"A", "B", "C"}
	run := func() *RunData {
		return &RunData{Name: RunGeneral, Outcomes: []ChannelOutcome{
			{Channel: "C", Status: OutcomeOK, Attempts: 1},
			{Channel: "A", Status: OutcomeOK, Attempts: 1},
		}}
	}
	lone := run()
	if got := MergeRunShards(order, []*RunData{lone}, nil); got != lone {
		t.Fatalf("lone shard merged into a new run %+v", got)
	}
	if got := MergeRunShards(order, []*RunData{run(), nil}, nil); got.Outcomes[0].Channel != "A" {
		t.Fatalf("two-shard layout not canonicalized: %+v", got.Outcomes)
	}
}

// TestSummariesResilienceTallies: per-run summaries tally the outcome
// records into the resilience columns.
func TestSummariesResilienceTallies(t *testing.T) {
	sums := outcomeDataset().Summaries()
	if sums[0].FailedChannels != 1 || sums[0].SkippedChannels != 1 ||
		sums[0].QuarantinedChannels != 0 || sums[0].RetriedChannels != 2 {
		t.Errorf("run 0 summary = %+v", sums[0])
	}
	if sums[1].FailedChannels != 1 || sums[1].SkippedChannels != 1 ||
		sums[1].QuarantinedChannels != 1 || sums[1].RetriedChannels != 1 {
		t.Errorf("run 1 summary = %+v", sums[1])
	}
	// A pre-outcome dataset reports clean zeros (and the fields stay out
	// of the JSON encoding via omitempty).
	for _, s := range sampleDataset().Summaries() {
		if s.FailedChannels+s.SkippedChannels+s.QuarantinedChannels+s.RetriedChannels != 0 {
			t.Errorf("outcome-less run %s has resilience tallies: %+v", s.Run, s)
		}
	}
}

// TestCoverageFromOutcomes: the index's coverage report counts ok runs per
// channel, totals the degradation, and names partially-covered channels in
// first-appearance order.
func TestCoverageFromOutcomes(t *testing.T) {
	ix, err := BuildIndex(context.Background(), outcomeDataset(), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cov := ix.Coverage
	if cov == nil {
		t.Fatal("no coverage report")
	}
	if cov.Runs != 2 {
		t.Errorf("Runs = %d, want 2", cov.Runs)
	}
	if cov.ChannelRuns["KiKA"] != 2 || cov.ChannelRuns["n-tv"] != 1 || cov.ChannelRuns["arte"] != 0 {
		t.Errorf("ChannelRuns = %v", cov.ChannelRuns)
	}
	if cov.Failed != 2 || cov.Skipped != 2 || cov.Quarantined != 1 {
		t.Errorf("tallies = failed %d skipped %d quarantined %d", cov.Failed, cov.Skipped, cov.Quarantined)
	}
	if want := []string{"n-tv", "arte", "VOX"}; !reflect.DeepEqual(cov.Partial, want) {
		t.Errorf("Partial = %v, want %v", cov.Partial, want)
	}
	if len(cov.Partial) == 0 {
		t.Error("coverage claims complete")
	}
}

// TestCoverageFallbackWithoutOutcomes: datasets written before outcome
// tracking fall back to recorded channel metadata; full coverage reports
// complete.
func TestCoverageFallbackWithoutOutcomes(t *testing.T) {
	ds := sampleDataset() // run 0 measured KiKA+n-tv, run 1 only KiKA
	ix, err := BuildIndex(context.Background(), ds, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cov := ix.Coverage
	if cov.ChannelRuns["KiKA"] != 2 || cov.ChannelRuns["n-tv"] != 1 {
		t.Errorf("ChannelRuns = %v", cov.ChannelRuns)
	}
	if !reflect.DeepEqual(cov.Partial, []string{"n-tv"}) {
		t.Errorf("Partial = %v", cov.Partial)
	}

	// Uniform coverage: complete.
	full := &Dataset{Runs: []*RunData{
		{Name: RunGeneral, Channels: []ChannelInfo{{Name: "KiKA"}}},
		{Name: RunRed, Channels: []ChannelInfo{{Name: "KiKA"}}},
	}}
	ix, err = BuildIndex(context.Background(), full, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Coverage.Partial) != 0 {
		t.Errorf("uniform dataset not complete: %+v", ix.Coverage)
	}
}
