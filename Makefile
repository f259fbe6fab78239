GO ?= go

.PHONY: build test check race chaos resume fuzz bench fmt lint bench-json bench-analyze bench-measure bench-merge bench-span bench-snapshot bench-pipeline benchgate fleet trace

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the tier-1 gate: vet plus the full suite under the race
# detector. The sharded measurement engine (internal/core.Pool) runs its
# concurrency tests here, so any shared-state regression between shards
# fails the build; the telemetry stress test exercises the lock-free
# shard-local aggregation the same way.
check: build
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./internal/core/ ./internal/webos/ ./internal/proxy/ ./internal/telemetry/ ./internal/hostnet/

# chaos runs the fault-injection suite under the race detector: a scaled
# study executed under deterministic faults must produce a byte-identical
# dataset for every worker count, record per-channel outcomes, keep its
# telemetry counters worker-invariant, and stay analyzable when degraded.
# The resilience unit tests (retry, quarantine, deadline, fault transport)
# ride along, and so do the engine's cell-dispatch and world-fork tests
# at GOMAXPROCS 1, 2 and 4: cells of different shards interleave only
# from 2 on. The transport's lease and concurrency tests run ten times
# over, to shake the pooled writers its responses are lent, and so does
# the recorder's concurrent-headers test, to shake the recent header
# blocks every RoundTrip caller reaches under the recorder's lock.
chaos:
	$(GO) test -race -run 'TestChaos' -v .
	$(GO) test -race ./internal/faults/ ./internal/hostnet/
	$(GO) test -race -count=10 -run 'TestTransportLease|TestTransportConcurrent' ./internal/hostnet/
	$(GO) test -race -count=10 -run 'TestRecorderConcurrentHeaderReads' ./internal/proxy/
	$(GO) test -race -run 'TestRunContinues|TestQuarantine|TestSuccessResets|TestProbeFailure|TestDegradedOnly|TestRetryPolicy|TestVisitDeadline|TestPoolCancellation' ./internal/core/
	$(GO) test -race -cpu 1,2,4 -run 'TestPoolCell|TestFork' ./internal/core/ ./internal/synth/

# resume runs the crash-safety suite under the race detector: the
# checkpoint/journal format's torn-file contract (cut at every byte,
# corrupt every section boundary, refuse a cell frame spliced in from
# another campaign's journal), the in-process kill simulation (journals
# truncated at seed-derived offsets must resume to digest parity for
# every worker count, quarantine state included), the merge's refusal of
# a collector that stopped early, and the child-process chaos tests
# (hbbtv-measure SIGKILL'd mid-campaign and resumed, fleet shards killed
# and merged, SIGINT exiting 3 with flushed telemetry sinks). Kill points
# are seed-derived and logged, so a red run names the exact (seed, size)
# pair to replay.
resume:
	$(GO) test -race -run 'TestCheckpoint|TestJournal' -v ./internal/store/
	$(GO) test -race -run 'TestResume|TestMergeRejectsPartialShard|TestChaosProcessKillResumeParity|TestChaosFleetKillResumeMerge|TestChaosResumeMismatchRejectedCLI|TestChaosInterruptGracefulExit' -v .

# Short coverage-guided fuzzing passes (seeded corpora), 30 s each: the
# binary AIT decoder, the EIT and SDT decoders (no panic; every error wraps
# a package sentinel; an accepted table that re-encodes does so to a fixed
# point; sections are optionally resealed so mutations pass the length and
# CRC checks), the dataset loader over both formats and the
# checkpoint container (no panic; an accepted input re-saves as a
# snapshot to a fixed point with an unchanged digest), the checkpoint
# journal reader (no panic; an intact or torn journal's offset lies in
# the input, and that prefix reloads cleanly to the same checkpoint;
# frames are optionally resealed so mutations pass the CRC), the
# interning lemma behind the index build's stitch (chunked interning
# merged with MergeStrings equals one serial scan, IDs and table alike),
# the policy ad-window parser (no panic; accepted hours lie on the
# 24-hour clock; the result ignores ASCII letter case), the policy text
# extraction every recorded HTML body goes through (no panic; every output
# line is non-empty, trimmed and not boilerplate), the filter-list parsers
# and matcher (no panic; parse errors wrap bufio.ErrTooLong; Parse then
# Append matches every URL as parsing the joined text does), the HbbTV
# application parser (no panic; render∘parse reaches a fixed point), and
# three differential targets: the TV jar's one-pass Cookie header against
# net/http's AddCookie chain, the tracker's query and cookie scanners
# against url.ParseQuery and (*http.Request).Cookie, and the recorder's
# header blocks against a table keyed by proxy.AppendHeaderKey (the same
# key gives the same shared map in either role, different keys different
# maps; every map equals its input; a body is kept exactly for a textual
# Content-Type). -fuzz is a regular expression, so FuzzLoad is anchored to
# keep it from also matching FuzzLoadJournal.
fuzz:
	$(GO) test ./internal/dvb/ -run '^$$' -fuzz FuzzParseAIT -fuzztime 30s
	$(GO) test ./internal/dvb/ -run '^$$' -fuzz FuzzDecodeEIT -fuzztime 30s
	$(GO) test ./internal/dvb/ -run '^$$' -fuzz FuzzDecodeSDT -fuzztime 30s
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzLoadJournal -fuzztime 30s
	$(GO) test ./internal/intern/ -run '^$$' -fuzz FuzzInternRoundTrip -fuzztime 30s
	$(GO) test ./internal/policy/ -run '^$$' -fuzz FuzzParseAdWindow -fuzztime 30s
	$(GO) test ./internal/policy/ -run '^$$' -fuzz FuzzExtractText -fuzztime 30s
	$(GO) test ./internal/filterlist/ -run '^$$' -fuzz FuzzFilterList -fuzztime 30s
	$(GO) test ./internal/appmodel/ -run '^$$' -fuzz FuzzParseHTML -fuzztime 30s
	$(GO) test ./internal/webos/ -run '^$$' -fuzz FuzzCookieHeader -fuzztime 30s
	$(GO) test ./internal/headend/ -run '^$$' -fuzz FuzzTrackerLookups -fuzztime 30s
	$(GO) test ./internal/proxy/ -run '^$$' -fuzz FuzzRecorderHeaderBlocks -fuzztime 30s

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# fmt rewrites the tree in place; lint is the read-only CI gate: vet, a
# gofmt diff that fails when any file needs formatting, and vet plus the
# tests of pipebench, the benchmark's nested module, which builds against
# the library in this checkout, so a library change that breaks the
# benchmark fails here instead of in a benchmark run.
fmt:
	gofmt -l -w .

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi
	cd pipebench && $(GO) vet ./... && $(GO) test ./...

# bench-json runs the paper-scale benchmark suite with machine-readable
# (test2json) output for the CI artifact trail (BENCH_*.json trajectory).
bench-json:
	$(GO) test -json -bench . -benchtime 1x -run '^$$' . | tee bench.json

# bench-analyze runs the analysis-engine benchmarks only — serial vs
# parallel AnalyzeContext at paper scale (ns/op per -j, byte-identity
# asserted) plus a single-section analysis — records the
# test2json stream as BENCH_analyze.json for the CI artifact trail, and
# gates on the committed scaling floors (BENCH_floor.json): j=8 must hit
# its speedup-vs-serial target, clamped by the runner's gomaxprocs.
bench-analyze:
	$(GO) test -json -bench 'BenchmarkAnalyze' -benchtime 1x -run '^$$' . | tee BENCH_analyze.json
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_analyze.json -floor BENCH_floor.json -match 'BenchmarkAnalyze'

# bench-measure runs the measurement-engine throughput benchmark —
# ExecuteRuns at paper scale for j=1 and j=8, digest identity asserted
# across worker counts — at GOMAXPROCS 1 and 2, records the test2json
# stream as BENCH_measure.json for the CI artifact trail, and gates every
# result line on the committed flows/s floor (BENCH_floor.json), clamped
# by that line's gomaxprocs. It times two iterations per line: at 1x the
# testing package reports the first -cpu value's probe iteration, which
# ran at whatever GOMAXPROCS was in effect before it (the reported
# gomaxprocs metric shows it), so a 1x stream holds no one-core number.
bench-measure:
	$(GO) test -json -bench 'BenchmarkMeasureThroughput' -benchtime 2x -cpu 1,2 -run '^$$' . | tee BENCH_measure.json
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_measure.json -floor BENCH_floor.json -match 'BenchmarkMeasureThroughput'

# bench-merge runs the fleet-merge throughput benchmark — a 4-shard
# paper-scale fleet recombined by store.MergeShards — records the
# test2json stream as BENCH_merge.json for the CI artifact trail, and
# gates on the committed merged-flows/s floor (BENCH_floor.json).
bench-merge:
	$(GO) test -json -bench 'BenchmarkMergeShards' -benchtime 1x -run '^$$' . | tee BENCH_merge.json
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_merge.json -floor BENCH_floor.json -match 'BenchmarkMergeShards'

# bench-span runs the tracer hot-path benchmark — one StartSpan/End pair
# per op, allocation-pinned in the benchmark itself — records the
# test2json stream as BENCH_span.json, and gates on the committed spans/s
# floor (BENCH_floor.json).
bench-span:
	$(GO) test -json -bench 'BenchmarkSpanOverhead' -benchtime 1x -run '^$$' . | tee BENCH_span.json
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_span.json -floor BENCH_floor.json -match 'BenchmarkSpanOverhead'

# bench-snapshot times the snapshot writer and reader on the paper-scale
# dataset — a snapshot save, Dataset.Digest (the same encode, hashed) and
# a snapshot load — at GOMAXPROCS 1 and 2, and records the test2json
# stream as BENCH_snapshot.json. Three iterations per line, so every line
# reports timed iterations at its own GOMAXPROCS (see bench-measure). No
# floor gates it.
bench-snapshot:
	$(GO) test -json -bench 'BenchmarkSnapshotFormats/(save-snapshot|digest|load-snapshot)$$' -benchtime 3x -cpu 1,2 -run '^$$' . | tee BENCH_snapshot.json

# bench-pipeline runs the end-to-end pipeline benchmark (pipebench, the
# one BENCHMARK.json declares) on each of its workloads for 25 s at seed 1
# and appends every run's stamp and result, one JSON object per line, to
# BENCH_pipeline.json. The stamp names the measured commit and source
# digest, so the file collects before/after pairs. A run with a failed
# check stops the target and appends nothing.
bench-pipeline:
	mkdir -p .bench_build
	for w in campaign reanalyze chaos-resume; do \
		bash pipebench/run.sh --workload $$w --seed 1 --seconds 25 --trace 0 > .bench_build/pipeline.out || exit 1; \
		sed -n -e '1s/^stamp //p' -e '$$p' .bench_build/pipeline.out >> BENCH_pipeline.json; \
	done

# benchgate re-checks already recorded BENCH_*.json streams against the
# committed floors without re-running the (slow) paper-scale benchmarks.
benchgate:
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_analyze.json -floor BENCH_floor.json -match 'BenchmarkAnalyze'
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_measure.json -floor BENCH_floor.json -match 'BenchmarkMeasureThroughput'
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_merge.json -floor BENCH_floor.json -match 'BenchmarkMergeShards'
	$(GO) run ./cmd/hbbtv-benchgate -bench BENCH_span.json -floor BENCH_floor.json -match 'BenchmarkSpanOverhead'

# fleet is the end-to-end topology demo and gate: build the tools, run a
# 4-way fleet campaign as real collector processes, merge the shard
# snapshots, and verify the merged digest against the single-process run
# of the same study. Also exercised (plus chaos variants) by
# TestFleetChildProcesses in the default test suite.
fleet: build
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/hbbtv-measure ./cmd/hbbtv-measure && \
	$(GO) build -o $$dir/hbbtv-merge ./cmd/hbbtv-merge && \
	echo "== single-process reference ==" && \
	$$dir/hbbtv-measure -seed 321 -scale 0.05 -j 4 -shards 4 -snapshot $$dir/single.snap && \
	for i in 0 1 2 3; do \
		echo "== shard $$i/4 =="; \
		$$dir/hbbtv-measure -seed 321 -scale 0.05 -shard $$i/4 -snapshot $$dir/shard$$i.snap || exit 1; \
	done && \
	echo "== merge ==" && \
	$$dir/hbbtv-merge -verify $$dir/single.snap $$dir/shard0.snap $$dir/shard1.snap $$dir/shard2.snap $$dir/shard3.snap

# trace is the observability demo and gate: measure a small instrumented
# campaign, summarize its span trace with hbbtv-trace, and export the
# Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
trace: build
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/hbbtv-measure ./cmd/hbbtv-measure && \
	$(GO) build -o $$dir/hbbtv-trace ./cmd/hbbtv-trace && \
	echo "== instrumented campaign ==" && \
	$$dir/hbbtv-measure -seed 321 -scale 0.05 -j 4 -telemetry -snapshot $$dir/campaign.snap && \
	echo "== span trace summary ==" && \
	$$dir/hbbtv-trace -chrome $$dir/trace.json $$dir/campaign.snap && \
	echo "== chrome export: $$(wc -c < $$dir/trace.json) bytes of trace-event JSON =="
