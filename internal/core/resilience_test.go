package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/faults"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
)

// outcomeOf returns the named channel's outcome record in run, or nil.
func outcomeOf(run *store.RunData, channel string) *store.ChannelOutcome {
	for i := range run.Outcomes {
		if run.Outcomes[i].Channel == channel {
			return &run.Outcomes[i]
		}
	}
	return nil
}

// countOutcomes tallies run's outcome records by status.
func countOutcomes(run *store.RunData) map[store.OutcomeStatus]int {
	out := make(map[store.OutcomeStatus]int)
	for _, o := range run.Outcomes {
		out[o.Status]++
	}
	return out
}

// buildFaultyFramework is buildFramework plus a fault injector and retry
// policy — the scaffolding of every resilience test.
func buildFaultyFramework(t *testing.T, seed int64, scale float64, fc faults.Config, retry RetryPolicy) (*Framework, *synth.World) {
	t.Helper()
	inj, err := faults.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
	fw := New(Config{
		Internet:     world.Internet,
		Seed:         seed,
		Clock:        clk,
		Availability: world.Availability,
		Faults:       inj,
		Retry:        retry,
	})
	return fw, world
}

// resilienceSpec is a short General-style run.
func resilienceSpec() RunSpec {
	return RunSpec{
		Name:  store.RunGeneral,
		Date:  time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC),
		Watch: 60 * time.Second, ShotEvery: 60 * time.Second,
	}
}

// onAirVictim picks a channel that is on air for the spec's run, so an
// injected fault actually reaches the visit path.
func onAirVictim(t *testing.T, world *synth.World, spec RunSpec) string {
	t.Helper()
	avail := world.Availability[spec.Name]
	for _, ch := range world.Channels {
		if avail == nil || avail[ch.Service.Name] {
			return ch.Service.Name
		}
	}
	t.Fatal("no on-air channel in world")
	return ""
}

// TestRunContinuesPastFailedChannel: a channel whose tuner never locks is
// retried, recorded as failed, and reported as a VisitError — while every
// other channel is still measured. The pre-resilience engine aborted the
// run at the first error; this is the satellite bugfix's regression test.
func TestRunContinuesPastFailedChannel(t *testing.T) {
	const seed, scale = 33, 0.04
	spec := resilienceSpec()

	_, plain := buildFramework(t, seed, scale)
	victim := onAirVictim(t, plain, spec)

	fw, world := buildFaultyFramework(t, seed, scale, faults.Config{
		Seed:     1,
		Channels: map[string]faults.Plan{victim: {Rate: 1, Kinds: []faults.Kind{faults.KindTuneFail}}},
	}, RetryPolicy{MaxAttempts: 2, Backoff: time.Second})

	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	run, err := fw.ExecuteRunContext(context.Background(), spec, channels)
	if err == nil {
		t.Fatal("always-failing channel produced no error")
	}
	if !DegradedOnly(err) {
		t.Errorf("error not recognized as pure degradation: %v", err)
	}
	var ve *VisitError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want a *VisitError", err)
	}
	if ve.Channel != victim || ve.Attempts != 2 {
		t.Errorf("VisitError = %+v, want channel %s after 2 attempts", ve, victim)
	}
	if !errors.Is(err, faults.ErrTuneFail) || !errors.Is(err, faults.ErrInjected) {
		t.Errorf("error does not wrap the injected tune fault: %v", err)
	}

	o := outcomeOf(run, victim)
	if o == nil || o.Status != store.OutcomeFailed || o.Attempts != 2 {
		t.Errorf("victim outcome = %+v, want failed after 2 attempts", o)
	}
	if o != nil && o.Error == "" {
		t.Error("failed outcome carries no error text")
	}
	// The rest of the run happened: other on-air channels were measured,
	// and the victim contributed no ChannelInfo.
	if len(run.Channels) == 0 {
		t.Fatal("run measured no channels — engine aborted instead of continuing")
	}
	for _, ci := range run.Channels {
		if ci.Name == victim {
			t.Error("failed channel still produced a ChannelInfo record")
		}
	}
	counts := countOutcomes(run)
	if counts[store.OutcomeOK] != len(run.Channels) {
		t.Errorf("%d ok outcomes vs %d measured channels", counts[store.OutcomeOK], len(run.Channels))
	}
}

// TestQuarantineAfterConsecutiveFailedRuns: a channel that fails
// QuarantineAfter consecutive runs is benched for the rest of the study —
// later runs record it as quarantined without burning visit attempts.
func TestQuarantineAfterConsecutiveFailedRuns(t *testing.T) {
	const seed, scale = 33, 0.04
	spec := resilienceSpec()

	_, plain := buildFramework(t, seed, scale)
	victim := onAirVictim(t, plain, spec)

	fw, world := buildFaultyFramework(t, seed, scale, faults.Config{
		Seed:     1,
		Channels: map[string]faults.Plan{victim: {Rate: 1, Kinds: []faults.Kind{faults.KindTuneFail}}},
	}, RetryPolicy{MaxAttempts: 2, Backoff: time.Second, QuarantineAfter: 2})

	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	statuses := make([]store.OutcomeStatus, 0, 3)
	for i := 0; i < 3; i++ {
		run, err := fw.ExecuteRunContext(context.Background(), spec, channels)
		if err != nil && !DegradedOnly(err) {
			t.Fatal(err)
		}
		o := outcomeOf(run, victim)
		if o == nil {
			t.Fatalf("run %d: no outcome for victim", i)
		}
		statuses = append(statuses, o.Status)
		if o.Status == store.OutcomeQuarantined && o.Attempts != 0 {
			t.Errorf("run %d: quarantined channel still consumed %d attempts", i, o.Attempts)
		}
	}
	want := []store.OutcomeStatus{store.OutcomeFailed, store.OutcomeFailed, store.OutcomeQuarantined}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("victim statuses = %v, want %v", statuses, want)
		}
	}
}

// TestSuccessResetsFailStreak: quarantine needs *consecutive* failed runs;
// a clean run in between must reset the streak.
func TestSuccessResetsFailStreak(t *testing.T) {
	const seed, scale = 33, 0.04
	spec := resilienceSpec()
	_, plain := buildFramework(t, seed, scale)
	victim := onAirVictim(t, plain, spec)

	fw, world := buildFaultyFramework(t, seed, scale, faults.Config{Seed: 1}, RetryPolicy{QuarantineAfter: 2})
	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	// Fail once by hand, then let a clean run pass, then fail again: the
	// streak must never reach 2.
	fw.failStreak[victim] = 1
	run, err := fw.ExecuteRunContext(context.Background(), spec, channels)
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomeOf(run, victim); o == nil || o.Status != store.OutcomeOK {
		t.Fatalf("victim outcome = %+v, want ok", outcomeOf(run, victim))
	}
	if fw.failStreak[victim] != 0 {
		t.Errorf("failStreak = %d after clean run, want 0", fw.failStreak[victim])
	}
	if fw.quarantined[victim] {
		t.Error("victim quarantined despite clean run")
	}
}

// TestProbeFailureIsProbeError: a probe exhausted by injected faults comes
// back as a *ProbeError — degradation the funnel absorbs, not a hard stop.
func TestProbeFailureIsProbeError(t *testing.T) {
	const seed, scale = 5, 0.02
	_, plain := buildFramework(t, seed, scale)
	victim := plain.Channels[0].Service.Name

	fw, world := buildFaultyFramework(t, seed, scale, faults.Config{
		Seed:     1,
		Channels: map[string]faults.Plan{victim: {Rate: 1, Kinds: []faults.Kind{faults.KindTuneFail}}},
	}, RetryPolicy{MaxAttempts: 2, Backoff: time.Second})

	probe := fw.Probe(20 * time.Second)
	_, err := probe(world.Channels[0].Service)
	if err == nil {
		t.Fatal("probe of always-failing channel succeeded")
	}
	var pe *ProbeError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *ProbeError", err)
	}
	if pe.Channel != victim {
		t.Errorf("ProbeError.Channel = %q, want %q", pe.Channel, victim)
	}
	if !DegradedOnly(err) {
		t.Errorf("probe error not recognized as degradation: %v", err)
	}
	// Healthy channels still probe cleanly on the same framework.
	if len(world.Channels) > 1 {
		saw, err := probe(world.Channels[1].Service)
		if err != nil {
			t.Fatalf("healthy probe failed: %v", err)
		}
		if !saw {
			t.Error("healthy HbbTV channel produced no traffic")
		}
	}
}

// TestDegradedOnlyTaxonomy pins the error classification the resilient
// engine's callers rely on.
func TestDegradedOnlyTaxonomy(t *testing.T) {
	visit := &VisitError{Run: store.RunGeneral, Channel: "ch", Attempts: 2, Err: faults.ErrTuneFail}
	probeErr := &ProbeError{Channel: "ch", Err: faults.ErrTimeout}
	plain := errors.New("disk full")

	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", plain, false},
		{"cancellation", context.Canceled, false},
		{"visit error", visit, true},
		{"probe error", probeErr, true},
		{"joined degraded", errors.Join(visit, probeErr), true},
		{"joined mixed", errors.Join(visit, plain), false},
		{"wrapped degraded", fmt.Errorf("shard 3: %w", visit), true},
		{"wrapped joined", fmt.Errorf("run: %w", errors.Join(visit, visit)), true},
		{"wrapped plain", fmt.Errorf("run: %w", plain), false},
	}
	for _, tc := range cases {
		if got := DegradedOnly(tc.err); got != tc.want {
			t.Errorf("DegradedOnly(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryPolicyMechanics pins the policy arithmetic: validation bounds,
// the default single attempt, and capped exponential backoff.
func TestRetryPolicyMechanics(t *testing.T) {
	if err := (RetryPolicy{MaxAttempts: -1}).Validate(); err == nil {
		t.Error("negative MaxAttempts accepted")
	}
	if err := (RetryPolicy{Backoff: -time.Second}).Validate(); err == nil {
		t.Error("negative Backoff accepted")
	}
	if err := (RetryPolicy{QuarantineAfter: -1}).Validate(); err == nil {
		t.Error("negative QuarantineAfter accepted")
	}
	if err := (RetryPolicy{}).Validate(); err != nil {
		t.Errorf("zero policy rejected: %v", err)
	}

	if got := (RetryPolicy{}).attempts(); got != 1 {
		t.Errorf("zero policy attempts = %d, want 1", got)
	}
	if got := (RetryPolicy{MaxAttempts: 4}).attempts(); got != 4 {
		t.Errorf("attempts = %d, want 4", got)
	}

	p := RetryPolicy{Backoff: time.Second, BackoffMax: 5 * time.Second}
	wantBackoff := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, want := range wantBackoff {
		if got := p.backoff(i + 1); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := (RetryPolicy{}).backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}

	// Jitter is deterministic, bounded by delay/2, and channel-dependent.
	j1 := visitJitter(7, "ch-a", 1, time.Second)
	j2 := visitJitter(7, "ch-a", 1, time.Second)
	if j1 != j2 {
		t.Error("jitter not deterministic")
	}
	if j1 < 0 || j1 >= 500*time.Millisecond {
		t.Errorf("jitter %v outside [0, delay/2)", j1)
	}
}

// TestVisitDeadlineBoundsHangs: a hang fault burns virtual hours; the
// per-visit deadline converts that into a bounded, recorded failure
// instead of an unbounded stall.
func TestVisitDeadlineBoundsHangs(t *testing.T) {
	const seed, scale = 33, 0.04
	spec := resilienceSpec()
	_, plain := buildFramework(t, seed, scale)
	victim := onAirVictim(t, plain, spec)
	var appHost string
	for _, ch := range plain.Channels {
		if ch.Service.Name == victim {
			appHost = ch.AppHost
		}
	}
	if appHost == "" {
		t.Fatalf("no app host for %s", victim)
	}

	// The entry page itself loads fine (host plans beat channel plans);
	// every other host the app touches hangs for hours of virtual time.
	// Those subresource errors are swallowed by the app loader — exactly
	// the stall shape only a deadline can bound.
	fw, world := buildFaultyFramework(t, seed, scale, faults.Config{
		Seed:     1,
		Channels: map[string]faults.Plan{victim: {Rate: 1, Kinds: []faults.Kind{faults.KindHang}}},
		Hosts:    map[string]faults.Plan{appHost: {Rate: 0}},
	}, RetryPolicy{MaxAttempts: 1, VisitDeadline: time.Minute})

	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	run, err := fw.ExecuteRunContext(context.Background(), spec, channels)
	if err == nil {
		t.Fatal("hanging channel produced no error")
	}
	if !errors.Is(err, ErrVisitDeadline) {
		t.Errorf("err = %v, want ErrVisitDeadline in the tree", err)
	}
	if o := outcomeOf(run, victim); o == nil || o.Status != store.OutcomeFailed {
		t.Errorf("victim outcome = %+v, want failed", outcomeOf(run, victim))
	}
	// The deadline also guarantees no ChannelInfo was recorded for the
	// abandoned visit, so a later retry cannot duplicate it.
	for _, ci := range run.Channels {
		if ci.Name == victim {
			t.Error("deadline-abandoned visit left a ChannelInfo record")
		}
	}
}
