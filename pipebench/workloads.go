package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	hbbtvlab "github.com/hbbtvlab/hbbtvlab"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/core"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

// config is what a workload's set-up receives.
type config struct {
	seed    int64
	scale   float64
	workers int    // j of the measurement engine and of the analysis
	dir     string // scratch directory for journals
}

// A bench is a workload after set-up: the reference output every
// iteration must reproduce, and the inputs the iterations reuse.
type bench interface {
	// iterate runs one iteration through the library API and checks it.
	iterate(ctx context.Context) (ops, error)
	// traced runs one iteration with per-layer timing and checks it. The
	// profile is never nil.
	traced(ctx context.Context) (*profile, ops, error)
}

// worldScale is the size of every world, a quarter of the paper's, so
// that a run can measure several worlds and still end in about half a
// minute. The one extreme-volume channel keeps its ~54k Red-run requests
// whatever the scale, so it carries about a third of a world's traffic.
const worldScale = 0.25

// A workload is one of the benchmark's inputs: the set-up that builds a
// bench for one world, and how many worlds a run measures, one after the
// other.
type workload struct {
	setup  func(ctx context.Context, cfg config) (bench, error)
	worlds int
}

// workloads are the benchmark's inputs, by name. A world's cost swings
// from seed to seed with its dataset's size — reanalyze's by a sixth
// either way, campaign's by a tenth, chaos-resume's by a twentieth — so a
// run takes its medians over several worlds, more where the swing is wide
// and a world's set-up cheap next to it.
var workloads = map[string]workload{
	"campaign":     {setupCampaign, 3},
	"reanalyze":    {setupReanalyze, 4},
	"chaos-resume": {setupChaos, 2},
}

// worldSeed is the study seed of a run's k-th world: the first seed from
// seed + k·1000003 on whose world the extreme-volume channel is on air in
// the Red run, as it was in the paper's study. Without it a world lacks a
// quarter of its traffic and costs a third less, and the share of such
// worlds, about one in ten, would swing a run's medians. Starting far
// apart keeps the worlds of runs with nearby seeds apart.
func worldSeed(seed int64, k int, scale float64) int64 {
	for s := seed + int64(k)*1_000_003; ; s++ {
		w := synth.Build(synth.Config{Seed: s, Scale: scale}, clock.NewVirtual(studyStart))
		if ch := outlier(w); ch != nil && w.Availability[store.RunRed][ch.Service.Name] {
			return s
		}
	}
}

// outlier returns the world's extreme-volume channel.
func outlier(w *synth.World) *synth.Channel {
	for _, ch := range w.Channels {
		if ch.Outlier {
			return ch
		}
	}
	return nil
}

// ops counts a run's output checks and how many of them failed.
type ops struct{ attempted, failed int }

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// expect records one check of got against want; a non-nil err from
// producing got fails it too. It returns why the check failed.
func (o *ops) expect(what, got, want string, err error) error {
	o.attempted++
	if err == nil && got == want {
		return nil
	}
	o.failed++
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return fmt.Errorf("%s: got %s, want %s", what, got, want)
}

// measureRetry is hbbtv-measure's retry policy: three attempts with
// faults on and one without, 2 s backoff, a 5 min visit deadline, and
// quarantine after three failed runs.
func measureRetry(faulty bool) core.RetryPolicy {
	attempts := 1
	if faulty {
		attempts = 3
	}
	return core.RetryPolicy{
		MaxAttempts:     attempts,
		Backoff:         2 * time.Second,
		VisitDeadline:   5 * time.Minute,
		QuarantineAfter: 3,
	}
}

// campaignOptions is hbbtv-measure -j workers on the configured world.
func campaignOptions(cfg config, workers int) hbbtvlab.Options {
	return hbbtvlab.Options{Seed: cfg.seed, Scale: cfg.scale, Parallelism: workers, Retry: measureRetry(false)}
}

// chaosOptions is hbbtv-measure -j workers -fault-rate 0.25 -fault-seed
// seed+10, except that the channel named reliable gets no faults. The
// fault seed is set here rather than derived inside the library, so the
// traced run can build the same injector.
func chaosOptions(cfg config, reliable string) hbbtvlab.Options {
	return hbbtvlab.Options{
		Seed: cfg.seed, Scale: cfg.scale, Parallelism: cfg.workers,
		Faults: &faults.Config{
			Seed: cfg.seed + 10, Rate: 0.25,
			Channels: map[string]faults.Plan{reliable: {Rate: 0}},
		},
		Retry: measureRetry(true),
	}
}

// outlierChannel names the world's extreme-volume channel.
func outlierChannel(cfg config) string {
	w := synth.Build(synth.Config{Seed: cfg.seed, Scale: cfg.scale}, clock.NewVirtual(studyStart))
	if ch := outlier(w); ch != nil {
		return ch.Service.Name
	}
	return ""
}

// degraded drops a campaign error that only reports per-channel
// degradation, which the dataset records as channel outcomes.
func degraded(err error) error {
	if err != nil && hbbtvlab.DegradedOnly(err) {
		return nil
	}
	return err
}

// newStudy builds a study and runs its channel-selection funnel, as
// hbbtv-measure does before measuring.
func newStudy(opts hbbtvlab.Options) (*hbbtvlab.Study, error) {
	study, err := hbbtvlab.NewStudyChecked(opts)
	if err != nil {
		return nil, err
	}
	if _, err := study.SelectChannels(); degraded(err) != nil {
		return nil, err
	}
	return study, nil
}

// measure runs a whole campaign and returns its dataset.
func measure(ctx context.Context, opts hbbtvlab.Options) (*store.Dataset, error) {
	study, err := newStudy(opts)
	if err != nil {
		return nil, err
	}
	ds, err := study.ExecuteRunsContext(ctx)
	if err := degraded(err); err != nil {
		return nil, err
	}
	return ds, nil
}

// countWriter counts the bytes written to it and keeps none.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// campaign measures the study and saves it, as hbbtv-measure -j N
// -snapshot does. Its reference is the digest of a one-worker run of the
// same study, which the sharded engine promises to reproduce at any j.
type campaign struct {
	cfg    config
	digest string
}

func setupCampaign(ctx context.Context, cfg config) (bench, error) {
	ds, err := measure(ctx, campaignOptions(cfg, 1))
	if err != nil {
		return nil, err
	}
	d, err := ds.Digest()
	if err != nil {
		return nil, err
	}
	return &campaign{cfg: cfg, digest: d}, nil
}

func (c *campaign) iterate(ctx context.Context) (ops, error) {
	var o ops
	ds, err := measure(ctx, campaignOptions(c.cfg, c.cfg.workers))
	d := ""
	if err == nil {
		if d, err = ds.Digest(); err == nil {
			err = store.Save(&countWriter{}, ds, store.FormatSnapshot)
		}
	}
	err = o.expect("digest", d, c.digest, err)
	return o, err
}

// reanalyze loads a saved snapshot, analyzes every section and renders
// the report, as hbbtv-analyze -in does. Its reference is the one-worker
// analysis of the dataset before it was saved: the snapshot format
// promises the same dataset back and the analysis engine the same
// Results at any j.
type reanalyze struct {
	workers int
	snap    []byte
	want    string
}

func setupReanalyze(ctx context.Context, cfg config) (bench, error) {
	ds, err := measure(ctx, campaignOptions(cfg, cfg.workers))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, ds, store.FormatSnapshot); err != nil {
		return nil, err
	}
	res, err := hbbtvlab.AnalyzeContext(ctx, ds, hbbtvlab.AnalyzeOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	var report bytes.Buffer
	if err := hbbtvlab.RenderAll(&report, res); err != nil {
		return nil, err
	}
	want, err := outputHash(res, report.Bytes())
	if err != nil {
		return nil, err
	}
	return &reanalyze{workers: cfg.workers, snap: buf.Bytes(), want: want}, nil
}

// outputHash hashes what reanalyze produces: the Results as JSON, the
// form in which the analysis engine promises identical bytes at every j,
// and the rendered report. Fractional numbers are first rounded to ten
// significant digits, because stats.CohensKappa sums over a map and the
// consent section's kappa can change in its last bit from call to call.
func outputHash(res *hbbtvlab.Results, report []byte) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(roundFractions(v)); err != nil {
		return "", err
	}
	h.Write(report)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// roundFractions rounds every fractional number in a JSON value decoded
// with UseNumber to ten significant digits; integers stay exact.
func roundFractions(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = roundFractions(e)
		}
	case []any:
		for i, e := range x {
			x[i] = roundFractions(e)
		}
	case json.Number:
		if f, err := x.Float64(); err == nil && strings.ContainsAny(string(x), ".eE") {
			return json.Number(strconv.FormatFloat(f, 'g', 10, 64))
		}
	}
	return v
}

func (r *reanalyze) iterate(ctx context.Context) (ops, error) {
	var o ops
	got, err := r.analyze(ctx, nil)
	err = o.expect("results", got, r.want, err)
	return o, err
}

func (r *reanalyze) traced(ctx context.Context) (*profile, ops, error) {
	var o ops
	p := &profile{}
	got, err := r.analyze(ctx, p)
	err = o.expect("traced results", got, r.want, err)
	return p, o, err
}

// analyze is one reanalyze iteration. A non-nil p receives the per-layer
// times; the section and index-build times come from the telemetry
// AnalyzeContext records, because one-section calls would each rebuild
// the index.
func (r *reanalyze) analyze(ctx context.Context, p *profile) (string, error) {
	t0 := time.Now()
	ds, err := store.Load(bytes.NewReader(r.snap))
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	opts := hbbtvlab.AnalyzeOptions{Parallelism: r.workers}
	if p != nil {
		opts.Telemetry = telemetry.New(telemetry.Options{Shards: 1})
	}
	res, err := hbbtvlab.AnalyzeContext(ctx, ds, opts)
	if err != nil {
		return "", err
	}
	t2 := time.Now()
	var report bytes.Buffer
	if err := hbbtvlab.RenderAll(&report, res); err != nil {
		return "", err
	}
	if p != nil {
		p.load, p.analyze, p.render = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
		p.analysisTimes(opts.Telemetry.Snapshot())
	}
	return outputHash(res, report.Bytes())
}

// chaos runs a fault-injected campaign journaled by ExecuteResumable,
// then resumes a fresh study from a copy of the journal cut at a
// seed-derived offset, as a killed and restarted hbbtv-measure
// -checkpoint would. Both passes must reach the digest of the
// uninterrupted pass made in set-up, as checkpointing promises.
//
// The world's extreme-volume channel is kept free of faults: whether its
// Red visit survived would otherwise decide a third of the world's
// traffic, and with it the iteration's cost. Faults on the other channels
// still drive retries, quarantines and funnel exclusions.
type chaos struct {
	cfg    config
	opts   hbbtvlab.Options
	digest string
	header *store.Checkpoint // the journal's identity block, for the traced run
	cut    int64
}

func setupChaos(ctx context.Context, cfg config) (bench, error) {
	path := filepath.Join(cfg.dir, "setup.journal")
	defer os.Remove(path)
	c := &chaos{cfg: cfg, opts: chaosOptions(cfg, outlierChannel(cfg))}
	d, err := c.pass(ctx, hbbtvlab.CheckpointOptions{Path: path})
	if err != nil {
		return nil, err
	}
	header, size, err := store.LoadJournal(path)
	if err != nil {
		return nil, err
	}
	header.Cells = nil
	c.digest, c.header, c.cut = d, header, killPoint(cfg.seed, size)
	return c, nil
}

// pass runs one journaled campaign on a fresh study and returns its digest.
func (c *chaos) pass(ctx context.Context, co hbbtvlab.CheckpointOptions) (string, error) {
	study, err := newStudy(c.opts)
	if err != nil {
		return "", err
	}
	ds, err := study.ExecuteResumable(ctx, co)
	if err := degraded(err); err != nil {
		return "", err
	}
	return ds.Digest()
}

// journals returns an iteration's journal paths, cleared of the files of
// the iteration before.
func (c *chaos) journals() (full, cut string) {
	full, cut = filepath.Join(c.cfg.dir, "full.journal"), filepath.Join(c.cfg.dir, "cut.journal")
	os.Remove(full)
	os.Remove(cut)
	return full, cut
}

func (c *chaos) iterate(ctx context.Context) (ops, error) {
	var o ops
	full, cut := c.journals()
	d, err := c.pass(ctx, hbbtvlab.CheckpointOptions{Path: full})
	err1 := o.expect("uninterrupted digest", d, c.digest, err)
	d, err = "", cutJournal(full, cut, c.cut)
	if err == nil {
		d, err = c.pass(ctx, hbbtvlab.CheckpointOptions{Path: cut, Resume: true})
	}
	err2 := o.expect("resumed digest", d, c.digest, err)
	return o, errors.Join(err1, err2)
}

// killPoint derives where chaos-resume cuts a journal of size bytes: a
// seed-derived offset between 40% and 60% of it. Every seed thus replays
// about half the committed cells and measures the rest, and the cut
// usually tears a frame, as a kill does.
func killPoint(seed, size int64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15 // splitmix64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := 0.4 + 0.2*float64(x>>11)/(1<<53)
	return int64(frac * float64(size))
}

// cutJournal writes the first n bytes of src to dst: the file a process
// killed while appending to src leaves behind.
func cutJournal(src, dst string, n int64) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	n = min(n, int64(len(raw)))
	return os.WriteFile(dst, raw[:n], 0o644)
}
