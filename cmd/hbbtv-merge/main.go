// Command hbbtv-merge recombines the shard datasets of a fleet campaign
// (written by hbbtv-measure -shard i/N) into one complete dataset. The
// shard manifests are verified first — identical study parameters and
// channel order, shards 0..N-1 present exactly once — and the merged
// dataset's digest is byte-identical to a single-process -j 1 -shards N
// run of the same seed (fault-degraded campaigns included).
//
// Usage:
//
//	hbbtv-merge [-snapshot FILE] [-verify FILE] [-q]
//	            shard0.snap shard1.snap ...
//
// Inputs may be binary snapshots or gzip-JSON files written by earlier
// versions (the format is sniffed per file), in any order — the
// manifests place them. Response bodies and header blocks are deduplicated across shards
// through a content-addressed table while loading, so the merge holds one
// copy of each distinct payload instead of N.
//
// -verify loads a reference dataset (typically the single-process run)
// and exits non-zero unless the merged digest matches — the fleet CI
// gate. -snapshot writes the merged dataset in the format hbbtv-measure
// writes, before the check, so a mismatching merge is kept for
// inspection; its encode also yields the printed digest, so the merged
// runs are encoded once.
//
// When the shards were measured with -telemetry, the merged dataset
// carries the fleet-wide telemetry snapshot and span trace recombined
// from the shards (see telemetry.MergeShardSnapshots); neither enters
// the digest, so instrumented and bare shards verify identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/cli"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-merge:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hbbtv-merge", flag.ContinueOnError)
	fs.SetOutput(w)
	var output cli.Output
	output.Register(fs, "the merged dataset")
	verify := fs.String("verify", "", "load a reference dataset (e.g. the single-process run) and fail unless the merged digest matches it")
	quiet := fs.Bool("q", false, "print only errors and the merged digest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("no shard datasets given; usage: hbbtv-merge [-snapshot FILE] [-verify FILE] shard0 shard1 ...")
	}

	// One content-addressed table across all loads: identical tracker
	// payloads and header shapes recur on every shard, so the K datasets
	// share canonical copies instead of multiplying them K× in memory.
	// Loads are serial over files (the table is not locked); each snapshot
	// decode still fans its flow chunks out over all cores.
	dd := store.NewDedup()
	start := time.Now()
	datasets := make([]*store.Dataset, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ds, err := store.LoadDedup(f, dd)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		if ds.Shard == nil {
			return fmt.Errorf("%s has no shard manifest (not a shard dataset; measure it with -shard i/N)", path)
		}
		datasets = append(datasets, ds)
	}
	loadDur := time.Since(start)

	reg := telemetry.New(telemetry.Options{Shards: 1})
	start = time.Now()
	merged, err := store.MergeShards(context.Background(), reg.Controller(time.Now), datasets)
	if err != nil {
		return err
	}
	mergeDur := time.Since(start)

	if !*quiet {
		snap := reg.Snapshot()
		flows := snap.Counters["merge_flows"]
		stats := dd.Stats()
		fmt.Fprintf(w, "merged %d shard(s): %d runs, %d channels, %d flows in %s (%.0f flows/s)\n",
			len(datasets), snap.Counters["merge_runs"], snap.Counters["merge_channels"],
			flows, mergeDur.Round(time.Millisecond), float64(flows)/mergeDur.Seconds())
		fmt.Fprintf(w, "load: %s; dedup: %d/%d bodies shared (%.1f%% of %d body bytes), %d/%d header blocks shared\n",
			loadDur.Round(time.Millisecond),
			stats.BlobsShared, stats.Blobs, stats.BlobRatio()*100, stats.BlobBytes,
			stats.HeadersShared, stats.Headers)
		if merged.Telemetry != nil {
			line := fmt.Sprintf("telemetry: merged snapshot from %d shard(s)", len(merged.Telemetry.Shards))
			if tr := merged.Trace; tr != nil {
				line += fmt.Sprintf("; trace: %d spans (%d dropped); summarize with hbbtv-trace", len(tr.Spans), tr.DroppedSpans())
			}
			fmt.Fprintln(w, line)
		}
	}
	// -snapshot's encode gives the digest too; only without it is the
	// dataset encoded for the digest alone.
	digest, err := output.Write(w, merged)
	if err != nil {
		return err
	}
	if digest == "" {
		if digest, err = merged.Digest(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "digest %s\n", digest)

	if *verify != "" {
		f, err := os.Open(*verify)
		if err != nil {
			return err
		}
		ref, err := store.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load -verify %s: %w", *verify, err)
		}
		refDigest, err := ref.Digest()
		if err != nil {
			return err
		}
		if refDigest != digest {
			return fmt.Errorf("digest mismatch: merged %s != reference %s (%s)", digest, refDigest, *verify)
		}
		if !*quiet {
			fmt.Fprintf(w, "verified: digest matches %s\n", *verify)
		}
	}
	return nil
}
