package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/countrand"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// ChannelFlowBuckets are the histogram bucket bounds for flows recorded
// per channel visit.
var ChannelFlowBuckets = []int64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500}

// RunSpec configures one measurement run.
type RunSpec struct {
	Name store.RunName
	// Date is the run's start instant (Table I lists the real dates).
	Date time.Time
	// Button is the colored button pressed ("" for the General run).
	Button appmodel.Key
	// Watch is the per-channel watch time (900 s General, 1000 s colors).
	Watch time.Duration
	// ShotEvery is the screenshot cadence after the initial 10 s shot.
	ShotEvery time.Duration
}

// DefaultRuns reproduces the study's five measurement runs with their
// Table I dates. The color runs' cadence yields ~27 screenshots per
// channel, the General run's 16.
func DefaultRuns() []RunSpec {
	color := func(name store.RunName, date time.Time, key appmodel.Key) RunSpec {
		return RunSpec{
			Name: name, Date: date, Button: key,
			Watch: 1000 * time.Second, ShotEvery: 38 * time.Second,
		}
	}
	return []RunSpec{
		{Name: store.RunGeneral,
			Date:  time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC),
			Watch: 900 * time.Second, ShotEvery: 60 * time.Second},
		color(store.RunRed, time.Date(2023, 9, 14, 9, 0, 0, 0, time.UTC), appmodel.KeyRed),
		color(store.RunGreen, time.Date(2023, 9, 22, 9, 0, 0, 0, time.UTC), appmodel.KeyGreen),
		color(store.RunBlue, time.Date(2023, 9, 27, 9, 0, 0, 0, time.UTC), appmodel.KeyBlue),
		color(store.RunYellow, time.Date(2023, 10, 12, 9, 0, 0, 0, time.UTC), appmodel.KeyYellow),
	}
}

// Framework wires the TV, proxy, and virtual clock into the measurement
// loop of Section IV-C.
type Framework struct {
	Clock    *clock.Virtual
	Recorder *proxy.Recorder
	TV       *webos.TV
	// Telemetry is the framework's shard-scoped telemetry handle (nil
	// when telemetry is disabled; all uses are nil-safe no-ops).
	Telemetry *telemetry.Shard

	metrics fwMetrics
	src     *countrand.Source
	rng     *rand.Rand
	// interaction is the fixed 10-press sequence used in all color runs,
	// generated once with at least one ENTER.
	interaction []appmodel.Key
	// Availability optionally restricts which channels are on air per run
	// (some channels only broadcast during parts of the day).
	Availability map[store.RunName]map[string]bool

	// retry bounds per-channel visit attempts, backoff, deadline, and
	// quarantine (zero value = one attempt, never quarantine).
	retry RetryPolicy
	// seed is the framework seed, reused for deterministic backoff jitter.
	seed int64
	// scopeChannel/scopeAttempt identify the visit attempt in progress;
	// the transport and TV read them (same goroutine) to key fault
	// decisions, so a retry attempt rolls a fresh fault schedule.
	scopeChannel string
	scopeAttempt int
	// failStreak counts consecutive failed runs per channel; quarantined
	// benches channels for the rest of this framework's study. Both are
	// per-framework: under the sharded engine a channel always lives on
	// the same shard, so streaks accumulate deterministically.
	failStreak  map[string]int
	quarantined map[string]bool
}

// Config configures a Framework.
type Config struct {
	// Internet is the virtual network the TV talks to.
	Internet *hostnet.Internet
	// Seed drives channel-order randomization, the interaction sequence,
	// and TV identifier generation.
	Seed int64
	// Clock is the framework's virtual clock, shared with the world (so
	// that e.g. tracker timestamp cookies advance with the measurement
	// timeline).
	Clock *clock.Virtual
	// Availability restricts per-run channel availability (nil = all).
	Availability map[store.RunName]map[string]bool
	// Telemetry, when non-nil, instruments this framework (and its
	// recorder and TV) as one shard of the given registry.
	Telemetry *telemetry.Shard
	// Faults, when non-nil, injects deterministic faults into the
	// framework's transport and TV (see internal/faults). Injectors are
	// stateless, so the same instance may be shared across shards.
	Faults *faults.Injector
	// Retry is the per-channel resilience policy (zero value = one
	// attempt, no backoff, no deadline, no quarantine).
	Retry RetryPolicy
}

// fwMetrics are the framework's pre-resolved telemetry handles. Resolving
// at wiring time keeps the hot path to one atomic add per update; all
// fields are nil (no-ops) when telemetry is disabled.
type fwMetrics struct {
	channelsVisited     *telemetry.BoundCounter
	channelsSkipped     *telemetry.BoundCounter
	channelsFailed      *telemetry.BoundCounter
	channelsRetried     *telemetry.BoundCounter
	channelsQuarantined *telemetry.BoundCounter
	faultsInjected      *telemetry.BoundCounter
	runsCompleted       *telemetry.BoundCounter
	panicsRecovered     *telemetry.BoundCounter
	probes              *telemetry.BoundCounter
	channelFlows        *telemetry.BoundHistogram
}

// New builds a Framework: virtual clock, recording proxy over an
// in-process transport, and the TV wired to both. When cfg.Faults is set,
// the transport and TV additionally consult the injector, scoped to the
// framework's current (channel, attempt) so retries roll fresh fault
// decisions.
func New(cfg Config) *Framework {
	src := countrand.New(cfg.Seed ^ 0x5bd1e995)
	f := &Framework{
		Clock:        cfg.Clock,
		Telemetry:    cfg.Telemetry,
		src:          src,
		rng:          rand.New(src),
		Availability: cfg.Availability,
		retry:        cfg.Retry,
		seed:         cfg.Seed,
		failStreak:   make(map[string]int),
		quarantined:  make(map[string]bool),
	}
	rec := proxy.NewRecorder(&hostnet.Transport{
		Net:        cfg.Internet,
		Clock:      cfg.Clock,
		Faults:     cfg.Faults,
		FaultScope: func() (string, int) { return f.scopeChannel, f.scopeAttempt },
		OnFault:    f.onFault,
	}, cfg.Clock)
	rec.SetTelemetry(cfg.Telemetry)
	tv := webos.New(webos.Config{
		Clock:        cfg.Clock,
		Transport:    rec,
		Seed:         cfg.Seed,
		OnSwitch:     rec.SwitchChannel,
		Telemetry:    cfg.Telemetry,
		Faults:       cfg.Faults,
		FaultAttempt: func() int { return f.scopeAttempt },
		OnFault:      f.onFault,
	})
	f.Recorder = rec
	f.TV = tv
	f.metrics = fwMetrics{
		channelsVisited:     cfg.Telemetry.Counter("core_channels_visited"),
		channelsSkipped:     cfg.Telemetry.Counter("core_channels_skipped"),
		channelsFailed:      cfg.Telemetry.Counter("core_channels_failed"),
		channelsRetried:     cfg.Telemetry.Counter("core_channels_retried"),
		channelsQuarantined: cfg.Telemetry.Counter("core_channels_quarantined"),
		faultsInjected:      cfg.Telemetry.Counter("core_faults_injected"),
		runsCompleted:       cfg.Telemetry.Counter("core_runs_completed"),
		panicsRecovered:     cfg.Telemetry.Counter("core_panics_recovered"),
		probes:              cfg.Telemetry.Counter("core_channels_probed"),
		channelFlows:        cfg.Telemetry.Histogram("core_channel_flows", ChannelFlowBuckets),
	}
	f.interaction = fixedInteraction(f.rng)
	return f
}

// onFault records one injected fault (transport- or broadcast-level) in
// the shard's telemetry: a count, and a note on whatever span was
// running — the tune, app launch, or visit attempt it perturbed.
func (f *Framework) onFault(kind faults.Kind, target string) {
	f.metrics.faultsInjected.Inc()
	if f.Telemetry.Active() {
		f.Telemetry.AnnotateSpan(telemetry.EventFault, kind.String()+" "+target)
	}
}

// fixedInteraction generates the study's fixed sequence of 10 random
// cursor/ENTER presses with ENTER guaranteed at least once.
func fixedInteraction(rng *rand.Rand) []appmodel.Key {
	pool := []appmodel.Key{
		appmodel.KeyUp, appmodel.KeyDown, appmodel.KeyLeft,
		appmodel.KeyRight, appmodel.KeyEnter,
	}
	seq := make([]appmodel.Key, 10)
	hasEnter := false
	for i := range seq {
		seq[i] = pool[rng.Intn(len(pool))]
		if seq[i] == appmodel.KeyEnter {
			hasEnter = true
		}
	}
	if !hasEnter {
		seq[rng.Intn(len(seq))] = appmodel.KeyEnter
	}
	return seq
}

// Probe implements the exploratory measurement: tune, watch, and report
// whether any traffic appeared. The recorder is reset afterwards so probe
// traffic never leaks into run data.
//
// Probes share the framework's RetryPolicy: a failing probe is retried
// with backoff up to the attempt budget, and a persistently failing
// candidate is reported as a *ProbeError — SelectChannels then excludes
// it and carries on, as the field study would for a dead channel.
func (f *Framework) Probe(watch time.Duration) ProbeFunc {
	return func(svc *dvb.Service) (bool, error) {
		f.metrics.probes.Inc()
		span := f.Telemetry.StartSpan(telemetry.SpanProbe, svc.Name)
		defer span.End()
		var err error
		for attempt := 1; attempt <= f.retry.attempts(); attempt++ {
			if attempt > 1 {
				f.backoff(svc.Name, attempt-1)
			}
			f.scopeChannel, f.scopeAttempt = svc.Name, attempt
			span.SetAttempt(attempt)
			var saw bool
			saw, err = f.probeOnce(svc, watch)
			if err == nil {
				return saw, nil
			}
		}
		return false, &ProbeError{Channel: svc.Name, Err: err}
	}
}

// probeOnce is one attempt of the exploratory measurement, leaving the TV
// powered off and the recorder clean regardless of outcome.
func (f *Framework) probeOnce(svc *dvb.Service, watch time.Duration) (saw bool, err error) {
	f.Recorder.Reset()
	f.TV.PowerOn()
	defer func() {
		f.TV.PowerOff()
		f.TV.WipeBrowserState()
		f.Recorder.Reset()
	}()
	if err := f.TV.TuneTo(svc); err != nil {
		return false, fmt.Errorf("core: probe %s: %w", svc.Name, err)
	}
	f.TV.Watch(watch)
	return f.Recorder.Len() > 0, nil
}

// backoff burns the deterministic retry delay before attempt (attempt+1)
// on the virtual clock: exponential base delay plus a jittered component
// derived from (seed, channel, attempt) — never from a shared RNG, so the
// schedule is identical for every shard layout and worker count.
func (f *Framework) backoff(channel string, attempt int) {
	f.metrics.channelsRetried.Inc()
	if f.Telemetry.Active() {
		f.Telemetry.AnnotateSpan(telemetry.EventRetry, fmt.Sprintf("%s attempt=%d", channel, attempt+1))
	}
	delay := f.retry.backoff(attempt)
	if delay <= 0 {
		return
	}
	// Jitter is keyed on (seed, channel, attempt) rather than drawn from
	// f.rng: consuming RNG state per retry would entangle the channel-order
	// permutation with how many retries earlier channels needed.
	delay += visitJitter(f.seed, channel, attempt, delay)
	f.Clock.Sleep(delay)
}

// ExecuteRunContext performs one measurement run over the given channels,
// following the Section IV-C procedure: start proxy, power the TV on,
// visit every (available) channel in randomized order, collect, wipe,
// power off, with cooperative cancellation, per-channel panic recovery,
// and per-channel resilience. Cancellation is
// checked between channel visits; when the context is done, the remaining
// channels are marked skipped, the run is collected as usual, and the
// well-formed (possibly partial) RunData is returned alongside the
// context's error. A panic inside a channel's application is recovered,
// logged to the TV's log stream, and counted in RunData.RecoveredPanics.
//
// A failed channel visit no longer aborts the run: the visit is retried
// per the RetryPolicy, a persistent failure is recorded as a failed
// store.ChannelOutcome, and measurement continues with the next channel.
// All visit failures come back joined as *VisitError values (see
// DegradedOnly); cancellation is the only early exit. Channels that failed
// in RetryPolicy.QuarantineAfter consecutive runs are quarantined for the
// remainder of this framework's study. RunData.Outcomes records one entry
// per considered channel, in the canonical order of the channels argument.
func (f *Framework) ExecuteRunContext(ctx context.Context, spec RunSpec, channels []*dvb.Service) (*store.RunData, error) {
	f.Clock.Set(spec.Date)
	f.Recorder.Reset()
	f.TV.WipeBrowserState()
	f.TV.PowerOn()
	runSpan := f.Telemetry.StartSpan(telemetry.SpanRun, string(spec.Name))
	defer runSpan.End()

	avail := f.Availability[spec.Name]
	order := f.rng.Perm(len(channels))
	run := &store.RunData{Name: spec.Name, Date: spec.Date}

	// Outcomes are indexed by canonical position so the record stays in
	// canonical channel order no matter the visit permutation.
	outcomes := make([]store.ChannelOutcome, len(channels))
	var cancelErr error
	var visitErrs []error
	for _, idx := range order {
		svc := channels[idx]
		if cancelErr == nil {
			if err := ctx.Err(); err != nil {
				cancelErr = err
			}
		}
		if cancelErr != nil {
			outcomes[idx] = store.ChannelOutcome{
				Channel: svc.Name, Status: store.OutcomeSkipped, Error: "run cancelled",
			}
			continue
		}
		if f.quarantined[svc.Name] {
			outcomes[idx] = store.ChannelOutcome{
				Channel: svc.Name, Status: store.OutcomeQuarantined,
				Error: fmt.Sprintf("quarantined after %d consecutive failed runs", f.retry.QuarantineAfter),
			}
			continue
		}
		if avail != nil && !avail[svc.Name] {
			f.metrics.channelsSkipped.Inc()
			outcomes[idx] = store.ChannelOutcome{
				Channel: svc.Name, Status: store.OutcomeSkipped, Error: "off-air",
			}
			continue // channel not broadcasting during this run
		}
		attempts, err := f.visitWithRetry(ctx, spec, svc, run)
		if err != nil {
			visitErrs = append(visitErrs, &VisitError{
				Run: spec.Name, Channel: svc.Name, Attempts: attempts, Err: err,
			})
			outcomes[idx] = store.ChannelOutcome{
				Channel: svc.Name, Status: store.OutcomeFailed,
				Attempts: attempts, Error: err.Error(),
			}
			f.metrics.channelsFailed.Inc()
			f.Telemetry.AnnotateSpan(telemetry.EventChannelFail, svc.Name)
			f.failStreak[svc.Name]++
			if q := f.retry.QuarantineAfter; q > 0 && f.failStreak[svc.Name] >= q {
				f.quarantined[svc.Name] = true
				f.metrics.channelsQuarantined.Inc()
				f.Telemetry.AnnotateSpan(telemetry.EventQuarantine, svc.Name)
			}
			continue
		}
		delete(f.failStreak, svc.Name)
		outcomes[idx] = store.ChannelOutcome{
			Channel: svc.Name, Status: store.OutcomeOK, Attempts: attempts,
		}
	}
	run.Outcomes = outcomes

	// Collection: flows, cookie jar, localStorage, logs — then wipe and
	// power off, as after every run of the study. Collection also happens
	// for cancelled or degraded runs so partial data stays well-formed.
	run.Flows = f.Recorder.Flows()
	run.Cookies = f.TV.CookieJar().All()
	run.Storage = f.TV.Storage().All()
	run.Logs = f.TV.Logs()
	f.TV.WipeBrowserState()
	f.TV.PowerOff()
	if cancelErr != nil {
		return run, cancelErr
	}
	f.metrics.runsCompleted.Inc()
	return run, errors.Join(visitErrs...)
}

// visitWithRetry drives one channel through the retry loop, returning the
// number of attempts consumed and the final attempt's error (nil once an
// attempt succeeds). The attempt number is published as the fault scope
// for the duration of the attempt — including its watch phase — so every
// fault decision keys on (host, channel, attempt).
func (f *Framework) visitWithRetry(ctx context.Context, spec RunSpec, svc *dvb.Service, run *store.RunData) (int, error) {
	f.metrics.channelsVisited.Inc()
	visitSpan := f.Telemetry.StartSpan(telemetry.SpanVisit, svc.Name)
	defer visitSpan.End()
	var err error
	for attempt := 1; attempt <= f.retry.attempts(); attempt++ {
		if attempt > 1 {
			// backoff annotates the visit span (the retry's delay is part of
			// the visit, not of any single attempt).
			f.backoff(svc.Name, attempt-1)
		}
		f.scopeChannel, f.scopeAttempt = svc.Name, attempt
		attemptSpan := f.Telemetry.StartSpan(telemetry.SpanAttempt, svc.Name)
		attemptSpan.SetAttempt(attempt)
		err = f.visitChannelRecovered(spec, svc, run)
		attemptSpan.End()
		if err == nil || ctx.Err() != nil {
			return attempt, err
		}
	}
	return f.retry.attempts(), err
}

// visitChannelRecovered runs one channel visit with panic recovery: a
// misbehaving application (e.g. a malformed broadcast table or a crashing
// app server) must not take down the whole run — the paper's setup would
// simply move on to the next channel after a TV-side crash. A recovered
// panic is noted on the span still open when it is recovered: the visit's
// attempt span.
func (f *Framework) visitChannelRecovered(spec RunSpec, svc *dvb.Service, run *store.RunData) (err error) {
	defer func() {
		if r := recover(); r != nil {
			run.RecoveredPanics++
			f.metrics.panicsRecovered.Inc()
			f.Telemetry.AnnotateSpan(telemetry.EventPanic, svc.Name)
			f.TV.Log(webos.LogError, fmt.Sprintf("recovered panic on %s: %v", svc.Name, r))
		}
	}()
	flowsBefore := 0
	if f.Telemetry.Active() {
		flowsBefore = f.Recorder.Len()
	}
	err = f.visitChannel(spec, svc, run)
	if f.Telemetry.Active() {
		f.metrics.channelFlows.Observe(int64(f.Recorder.Len() - flowsBefore))
	}
	return err
}

// visitChannel is one iteration of the remote-control script.
func (f *Framework) visitChannel(spec RunSpec, svc *dvb.Service, run *store.RunData) error {
	setupStart := f.Clock.Now()
	if err := f.TV.TuneTo(svc); err != nil {
		return fmt.Errorf("core: run %s: tune %s: %w", spec.Name, svc.Name, err)
	}
	// The per-visit deadline bounds the setup phase (tune + app load),
	// where injected hangs burn virtual time. It is checked before the
	// channel is committed to the run, so an abandoned attempt leaves no
	// ChannelInfo/screenshot residue and a retry cannot duplicate data.
	if dl := f.retry.VisitDeadline; dl > 0 {
		if took := f.Clock.Now().Sub(setupStart); took > dl {
			return fmt.Errorf("core: run %s: channel %s: setup took %v: %w",
				spec.Name, svc.Name, took, ErrVisitDeadline)
		}
	}
	run.Channels = append(run.Channels, store.ChannelInfo{
		Name:       svc.Name,
		ID:         fmt.Sprintf("sid-%d", svc.ServiceID),
		Satellite:  svc.Transponder.Satellite.Name,
		Language:   svc.Language,
		Categories: append([]dvb.ServiceCategory(nil), svc.Categories...),
		Show:       svc.CurrentShow,
		Genre:      svc.CurrentGenre,
	})

	elapsed := time.Duration(0)
	watchAndShoot := func(d time.Duration) {
		// Watch in screenshot-cadence slices.
		for d > 0 {
			step := spec.ShotEvery
			if step > d {
				step = d
			}
			f.TV.Watch(step)
			elapsed += step
			run.Screenshots = append(run.Screenshots, f.TV.Screenshot())
			d -= step
		}
	}

	// Initial 10 s, then the first screenshot.
	f.TV.Watch(10 * time.Second)
	elapsed += 10 * time.Second
	run.Screenshots = append(run.Screenshots, f.TV.Screenshot())

	if spec.Button != "" {
		f.TV.Press(spec.Button)
		f.TV.Watch(10 * time.Second)
		elapsed += 10 * time.Second
		run.Screenshots = append(run.Screenshots, f.TV.Screenshot())
		for _, key := range f.interaction {
			f.TV.Press(key)
			f.TV.Watch(2 * time.Second)
			elapsed += 2 * time.Second
		}
		run.Screenshots = append(run.Screenshots, f.TV.Screenshot())
	}
	if rest := spec.Watch - elapsed; rest > 0 {
		watchAndShoot(rest)
	}
	return nil
}
