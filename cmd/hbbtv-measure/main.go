// Command hbbtv-measure reproduces the paper's data collection: it builds
// the synthetic broadcast world, runs the Section IV-B channel-selection
// funnel, executes the five measurement runs, and writes the captured
// flows as NDJSON (the study's "push to BigQuery" step).
//
// Usage:
//
//	hbbtv-measure [-seed N] [-scale F] [-j N] [-out flows.ndjson] [-run NAME]
//	              [-shard i/N] [-snapshot FILE]
//	              [-checkpoint FILE] [-resume] [-checkpoint-sync N]
//	              [-telemetry] [-telemetry-json FILE] [-telemetry-http ADDR]
//	              [-fault-seed N] [-fault-rate F] [-retries N]
//	              [-max-channel-failures N] [-allow-panics]
//
// With -shard i/N the process executes only the i-th of N strided
// partitions of the channel order — one collector of a fleet campaign —
// and the written dataset carries a self-describing shard manifest.
// Collect all N shard datasets and combine them with hbbtv-merge; the
// merged dataset's digest is byte-identical to a single-process
// -j 1 -shards N run of the same seed.
//
// -snapshot writes the full dataset in the binary snapshot format, which
// hbbtv-analyze -in and hbbtv-merge read, and prints the dataset's digest
// ("digest <hex>", what hbbtv-merge prints and -verify compares) from the
// encode that wrote the file. -out (NDJSON flows) and -har (HAR 1.2)
// export the flows for other tools.
//
// With -telemetry the engine is instrumented (live progress line on
// stderr, final snapshot and span trace embedded in -snapshot output); -telemetry-json streams periodic JSON-line snapshots (one
// final snapshot is always emitted at campaign end); -telemetry-http
// serves the live campaign dashboard while the run executes: an embedded
// HTML page on /, an SSE frame stream on /events, the raw snapshot on
// /telemetry, a liveness probe on /healthz, and — only with -pprof —
// net/http/pprof under /debug/pprof/. Inspect the persisted trace with
// hbbtv-trace.
//
// With -checkpoint FILE the campaign is crash-safe: every completed
// (shard, run) cell is committed to a write-ahead journal and fsync'd
// (cadence: -checkpoint-sync), so a campaign killed at any point — power
// loss and SIGKILL included — restarts with -resume, replays the
// journaled cells, measures only the remainder, and produces a dataset
// byte-identical (by digest) to an uninterrupted run. The journal is
// self-describing; resuming with a different seed, scale, fault plan,
// retry policy, run set, topology, or channel order is rejected with an
// error naming the differing field. Every campaign is checkpointable,
// the default -j 0 one included: its single shard's cells are its runs.
// On SIGINT or SIGTERM the campaign stops gracefully at the next channel
// boundary, syncs the journal and the telemetry sinks, and exits with
// status 3 (distinct from error status 1) so wrappers know the journal is
// resumable; a second signal exits immediately.
//
// With -fault-rate > 0 the run executes under deterministic fault
// injection (chaos mode): the virtual network and broadcast layer fail
// with the given probability, scheduled purely by (-fault-seed, host,
// channel, attempt), and the resilience layer retries, records, and
// quarantines instead of aborting. The same (-seed, -fault-seed) pair
// reproduces the identical degraded campaign for every -j.
//
// Exit status: 0 on success; 3 when the campaign was interrupted by
// SIGINT/SIGTERM (the partial work is journaled if -checkpoint was
// given); otherwise 1 — including when any channel's measurement panicked
// and was recovered (RecoveredPanics > 0, unless -allow-panics is set)
// and when more channels ended failed or quarantined than
// -max-channel-failures allows — so CI and unattended campaigns can trust
// the exit code.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/cli"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// exitInterrupted is the exit status of a campaign stopped gracefully by
// SIGINT/SIGTERM: distinct from error status 1, so fleet wrappers know
// the checkpoint journal (if any) is intact and resumable.
const exitInterrupted = 3

// errInterrupted marks the graceful-shutdown exit path.
var errInterrupted = errors.New("interrupted")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hbbtv-measure:", err)
		if errors.Is(err, errInterrupted) {
			os.Exit(exitInterrupted)
		}
		os.Exit(1)
	}
}

// signalContext returns a context cancelled by the first SIGINT or
// SIGTERM — the engine then stops at its next channel boundary, the
// checkpoint journal and telemetry sinks are synced on the way out, and
// the process exits with status 3. A second signal exits immediately.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "hbbtv-measure: %v: stopping at the next channel boundary (repeat to exit immediately)\n", sig)
		cancel()
		if sig, ok = <-ch; ok {
			fmt.Fprintf(os.Stderr, "hbbtv-measure: %v: exiting immediately\n", sig)
			os.Exit(exitInterrupted)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel()
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hbbtv-measure", flag.ContinueOnError)
	var world cli.Study
	var jobs cli.Jobs
	var telem cli.Telemetry
	var output cli.Output
	var shardFlag cli.Shard
	var ckpt cli.Checkpoint
	world.Register(fs)
	jobs.Register(fs, "the measurement engine, whose default shard count is 1 at -j 0 and 8 otherwise")
	telem.Register(fs)
	output.Register(fs, "the FULL dataset")
	shardFlag.Register(fs)
	ckpt.Register(fs)
	out := fs.String("out", "", "write flows as NDJSON to this file (default: no dump)")
	har := fs.String("har", "", "write all flows as a HAR 1.2 archive")
	runName := fs.String("run", "", "execute only this run (General, Red, Green, Blue, Yellow)")
	shards := fs.Int("shards", 0, "logical shard count of the sharded engine (0 = default; part of the experiment definition)")
	allowPanics := fs.Bool("allow-panics", false, "exit 0 even when channels panicked and were recovered during measurement")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof on the -telemetry-http dashboard (/debug/pprof/)")
	faultSeed := fs.Int64("fault-seed", 0, "fault-injection seed (0 = derive from -seed); meaningful with -fault-rate")
	faultRate := fs.Float64("fault-rate", 0, "per-decision fault probability in [0, 1] (0 = reliable world)")
	retries := fs.Int("retries", 0, "per-channel visit attempts (0 = default: 3 with faults on, 1 otherwise)")
	maxChanFail := fs.Int("max-channel-failures", -1, "exit non-zero when more than N channels end failed or quarantined (-1 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := jobs.Validate(); err != nil {
		return err
	}
	if *shards != 0 && jobs.N < 1 {
		return fmt.Errorf("-shards requires the sharded engine; set -j >= 1")
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	}
	if shardFlag.Enabled() {
		// A fleet shard is one collector: its partition executes serially on
		// one framework and the shard count comes from the flag itself.
		if jobs.N != 0 || *shards != 0 {
			return fmt.Errorf("-shard runs one fleet collector; it conflicts with -j and -shards (the shard count is the N in -shard i/N)")
		}
		if *runName != "" {
			return fmt.Errorf("-shard measures every run of its partition; it conflicts with -run")
		}
	}
	if err := ckpt.Validate(); err != nil {
		return err
	}
	if ckpt.Enabled() {
		if *runName != "" {
			return fmt.Errorf("-checkpoint journals whole campaigns; it conflicts with -run")
		}
	}

	specs := core.DefaultRuns()
	if *runName != "" {
		var named []core.RunSpec
		for _, spec := range specs {
			if string(spec.Name) == *runName {
				named = append(named, spec)
			}
		}
		if named == nil {
			return fmt.Errorf("-run: unknown run %q (General, Red, Green, Blue, Yellow)", *runName)
		}
		specs = named
	}
	opts := hbbtvlab.Options{
		Seed: world.Seed, Scale: world.Scale, Runs: specs, Parallelism: jobs.N, Shards: *shards,
	}
	if *faultRate > 0 {
		opts.Faults = &faults.Config{Seed: *faultSeed, Rate: *faultRate}
	} else if *faultSeed != 0 {
		return fmt.Errorf("-fault-seed is meaningless without -fault-rate > 0")
	}
	attempts := *retries
	if attempts == 0 {
		attempts = 1
		if opts.Faults != nil {
			attempts = 3
		}
	}
	opts.Retry = core.RetryPolicy{
		MaxAttempts:     attempts,
		Backoff:         2 * time.Second,
		VisitDeadline:   5 * time.Minute,
		QuarantineAfter: 3,
	}
	telemetryOn := telem.On()
	if telemetryOn {
		if shardFlag.Enabled() {
			// The shard's instrumentation lands in registry slot i of N,
			// mirroring the in-process engine's layout.
			opts.Telemetry = hbbtvlab.NewTelemetry(hbbtvlab.Options{Shards: shardFlag.Of})
		} else {
			opts.Telemetry = hbbtvlab.NewTelemetry(opts)
		}
	}

	study, err := hbbtvlab.NewStudyChecked(opts)
	if err != nil {
		return err
	}
	funnel, err := study.SelectChannels()
	if err != nil {
		// Probe-level degradation excluded the failing candidates; the
		// funnel output is still usable and the campaign proceeds.
		if funnel == nil || !hbbtvlab.DegradedOnly(err) {
			return err
		}
		fmt.Fprintf(os.Stderr, "hbbtv-measure: warning: %d probe failure(s) during channel selection\n",
			funnel.ProbeErrors)
	}
	if err := hbbtvlab.RenderFunnel(os.Stdout, funnel); err != nil {
		return err
	}
	fmt.Println()

	measured := len(funnel.Final)
	if shardFlag.Enabled() {
		eff := core.EffectiveShards(shardFlag.Of, measured)
		measured = len(core.ShardSubset(funnel.Final, shardFlag.Index, eff))
	}

	var sink *telemetry.LineSink
	if telem.JSONPath != "" {
		f, err := os.Create(telem.JSONPath)
		if err != nil {
			return err
		}
		// Closing the sink flushes its buffer and closes f; the deferred
		// call covers every exit path — error returns, fault-budget aborts,
		// and the graceful signal path all unwind through here.
		sink = telemetry.NewLineSink(f)
		defer sink.Close()
	}
	var httpLn net.Listener
	if telem.HTTPAddr != "" {
		httpLn, err = net.Listen("tcp", telem.HTTPAddr)
		if err != nil {
			return fmt.Errorf("-telemetry-http: %w", err)
		}
		defer httpLn.Close()
		dash := telemetry.Dashboard(opts.Telemetry, telemetry.DashboardOptions{
			EnablePprof: *pprofFlag,
		})
		go func() { _ = http.Serve(httpLn, dash) }()
		fmt.Fprintf(os.Stderr, "telemetry: live dashboard on http://%s/ (SSE /events, snapshot /telemetry, /healthz)\n", httpLn.Addr())
	} else if *pprofFlag {
		return fmt.Errorf("-pprof exposes the profiler on the dashboard; it requires -telemetry-http")
	}
	var progress *progressReporter
	if telemetryOn {
		total := uint64(measured * len(specs))
		progress = newProgressReporter(opts.Telemetry, os.Stderr, sink, total)
		progress.start()
		// finish is idempotent: the deferred call guarantees the final
		// snapshot reaches the -telemetry-json sink even when a later step
		// errors out between ticks; the explicit call below just places the
		// final progress line before the summaries.
		defer progress.finish()
	}

	// The campaign runs under a signal-aware context: the first
	// SIGINT/SIGTERM stops it at the next channel boundary, and the normal
	// unwind below syncs the checkpoint journal and telemetry sinks before
	// the process exits with the distinct interrupted status.
	ctx, stopSignals := signalContext()
	defer stopSignals()
	co := hbbtvlab.CheckpointOptions{Path: ckpt.Path, Resume: ckpt.Resume, SyncEvery: ckpt.SyncEvery}

	var ds *store.Dataset
	switch {
	case shardFlag.Enabled() && ckpt.Enabled():
		ds, err = study.ExecuteShardResumable(ctx, shardFlag.Index, shardFlag.Of, co)
	case shardFlag.Enabled():
		ds, err = study.ExecuteShardContext(ctx, shardFlag.Index, shardFlag.Of)
	case ckpt.Enabled():
		ds, err = study.ExecuteResumable(ctx, co)
	default:
		ds, err = study.ExecuteRunsContext(ctx)
	}
	if err != nil && (ds == nil || !hbbtvlab.DegradedOnly(err)) {
		return interruptedError(ctx, err, &ckpt)
	}
	if err != nil {
		// Purely per-channel degradation: the dataset is well-formed and the
		// failures are recorded as outcomes; -max-channel-failures decides
		// the exit code below.
		fmt.Fprintf(os.Stderr, "hbbtv-measure: warning: degraded campaign: %v\n", err)
	}
	if progress != nil {
		progress.finish()
	}

	for _, s := range ds.Summaries() {
		fmt.Printf("%-8s channels=%-4d requests=%-7d https=%5.2f%% cookies=%-4d storage=%-4d screenshots=%-6d logs=%d",
			s.Run, s.Channels, s.HTTPRequests, s.HTTPSShare*100,
			s.Cookies, s.Storage, s.Screenshots, s.LogEntries)
		if s.FailedChannels+s.SkippedChannels+s.QuarantinedChannels+s.RetriedChannels > 0 {
			fmt.Printf(" failed=%d skipped=%d quarantined=%d retried=%d",
				s.FailedChannels, s.SkippedChannels, s.QuarantinedChannels, s.RetriedChannels)
		}
		fmt.Println()
	}
	if snap := ds.Telemetry; snap != nil {
		fmt.Printf("telemetry: %d flows, %d channel visits\n",
			snap.Counters["proxy_flows_recorded"], snap.Counters["core_channels_visited"])
	}
	if tr := ds.Trace; tr != nil {
		fmt.Printf("trace: %d spans (%d dropped); summarize with hbbtv-trace\n",
			len(tr.Spans), tr.DroppedSpans())
	}
	if m := ds.Shard; m != nil {
		fmt.Printf("shard %d of %d: %d of %d channels, order digest %.12s\n",
			m.Shard, m.Shards, m.AssignedChannels(), len(m.ChannelOrder), m.OrderDigest)
	}

	if *out != "" {
		if err := exportFile(*out, ds.ExportFlows); err != nil {
			return err
		}
		fmt.Printf("flows written to %s\n", *out)
	}
	if *har != "" {
		if err := exportFile(*har, ds.ExportHAR); err != nil {
			return err
		}
		fmt.Printf("HAR written to %s\n", *har)
	}
	digest, err := output.Write(os.Stdout, ds)
	if err != nil {
		return err
	}
	if digest != "" {
		fmt.Printf("digest %s\n", digest)
	}
	if err := panicsError(ds, *allowPanics); err != nil {
		return err
	}
	return failuresError(ds, *maxChanFail)
}

// exportFile writes path with export and closes it, returning the close
// error too: a write the OS buffered can still fail there.
func exportFile(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interruptedError maps a cancellation caused by the signal handler to
// the distinct interrupted exit, pointing at the resumable journal when
// one was kept; any other campaign error passes through unchanged.
func interruptedError(ctx context.Context, err error, ck *cli.Checkpoint) error {
	if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		return err
	}
	if ck.Enabled() {
		return fmt.Errorf("%w; checkpoint journal %s holds every completed cell — rerun with -resume to continue", errInterrupted, ck.Path)
	}
	return fmt.Errorf("%w (no -checkpoint journal; a rerun starts over)", errInterrupted)
}

// failuresError enforces the -max-channel-failures budget: it counts every
// channel visit that ended failed or quarantined across all runs and turns
// a budget overrun into a non-zero exit. With no budget (-1) failures are
// only warned about — the degraded dataset is still the campaign's result.
func failuresError(ds *store.Dataset, budget int) error {
	failed := 0
	for _, r := range ds.Runs {
		if r == nil {
			continue
		}
		for _, o := range r.Outcomes {
			if o.Status == store.OutcomeFailed || o.Status == store.OutcomeQuarantined {
				failed++
			}
		}
	}
	if failed == 0 {
		return nil
	}
	if budget >= 0 && failed > budget {
		return fmt.Errorf("%d channel visit(s) ended failed or quarantined, exceeding -max-channel-failures=%d", failed, budget)
	}
	fmt.Fprintf(os.Stderr, "hbbtv-measure: warning: %d channel visit(s) ended failed or quarantined\n", failed)
	return nil
}

// panicsError turns recovered measurement panics into a non-zero exit:
// the data is still well-formed (the engine recovered and continued), but
// an unattended campaign must not look green when channels crashed.
// -allow-panics downgrades it to a warning on stderr.
func panicsError(ds *store.Dataset, allow bool) error {
	panics := 0
	for _, r := range ds.Runs {
		panics += r.RecoveredPanics
	}
	if panics == 0 {
		return nil
	}
	if allow {
		fmt.Fprintf(os.Stderr, "hbbtv-measure: warning: %d recovered panic(s) during measurement (-allow-panics set)\n", panics)
		return nil
	}
	return fmt.Errorf("%d recovered panic(s) during measurement (rerun with -allow-panics to exit 0 anyway)", panics)
}
