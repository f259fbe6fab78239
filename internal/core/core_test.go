package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
)

func buildFramework(t *testing.T, seed int64, scale float64) (*Framework, *synth.World) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC))
	world := synth.Build(synth.Config{Seed: seed, Scale: scale}, clk)
	fw := New(Config{
		Internet:     world.Internet,
		Seed:         seed,
		Clock:        clk,
		Availability: world.Availability,
	})
	return fw, world
}

func TestSelectChannelsFunnel(t *testing.T) {
	fw, world := buildFramework(t, 21, 0.05)
	bouquet := dvb.NewReceiver().Scan(world.Universe)
	report, err := SelectChannels(bouquet, fw.Probe(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if report.Received != len(bouquet.Services) {
		t.Errorf("received = %d, want %d", report.Received, len(bouquet.Services))
	}
	if report.Radio == 0 || report.NoTraffic == 0 {
		t.Errorf("funnel steps empty: %+v", report)
	}
	if report.IPTV != 1 {
		t.Errorf("IPTV removed = %d, want 1", report.IPTV)
	}
	if report.FinalCount() != len(world.Channels) {
		t.Errorf("final = %d, want %d (the HbbTV channels)",
			report.FinalCount(), len(world.Channels))
	}
	// The funnel's arithmetic must be internally consistent.
	if report.TVChannels+report.Radio != report.Received {
		t.Error("radio + tv != received")
	}
	for _, svc := range report.Final {
		if svc.Radio || svc.Encrypted || svc.Invisible || svc.IPTV {
			t.Errorf("funnel leaked filtered channel %s", svc.Name)
		}
		if !svc.HasAIT() {
			t.Errorf("traffic-less channel %s survived", svc.Name)
		}
	}
}

func TestSelectChannelsMetadataOnly(t *testing.T) {
	b := &dvb.Bouquet{Services: []*dvb.Service{
		{Name: "TV", ServiceID: 1},
		{Name: "Radio", ServiceID: 2, Radio: true},
		{Name: "Pay", ServiceID: 3, Encrypted: true},
		{Name: "", ServiceID: 4},
		{Name: "Ghost", ServiceID: 5, Invisible: true},
	}}
	probe := func(svc *dvb.Service) (bool, error) { return true, nil }
	r, err := SelectChannels(b, probe)
	if err != nil {
		t.Fatal(err)
	}
	if r.TVChannels != 4 || r.Radio != 1 || r.FreeToAir != 3 || r.AfterVisible != 1 {
		t.Errorf("funnel = %+v", r)
	}
	if r.FinalCount() != 1 || r.Final[0].Name != "TV" {
		t.Errorf("final = %v", r.Final)
	}
}

// TestSelectChannelsAggregatesProbeErrors: a failing probe no longer
// aborts the funnel; every candidate is still probed, each failure is
// counted, and all errors come back joined.
func TestSelectChannelsAggregatesProbeErrors(t *testing.T) {
	b := &dvb.Bouquet{Services: []*dvb.Service{
		{Name: "Alpha", ServiceID: 1},
		{Name: "Beta", ServiceID: 2},
		{Name: "Gamma", ServiceID: 3},
		{Name: "Delta", ServiceID: 4},
	}}
	errBeta := errors.New("beta tuner fault")
	errGamma := errors.New("gamma app timeout")
	probed := 0
	probe := func(svc *dvb.Service) (bool, error) {
		probed++
		switch svc.Name {
		case "Beta":
			return false, errBeta
		case "Gamma":
			return false, errGamma
		}
		return true, nil
	}
	r, err := SelectChannels(b, probe)
	if probed != 4 {
		t.Errorf("probed %d candidates, want all 4", probed)
	}
	if r.ProbeErrors != 2 {
		t.Errorf("ProbeErrors = %d, want 2", r.ProbeErrors)
	}
	if !errors.Is(err, errBeta) || !errors.Is(err, errGamma) {
		t.Errorf("err = %v, want both probe errors joined", err)
	}
	if r.FinalCount() != 2 || r.Final[0].Name != "Alpha" || r.Final[1].Name != "Delta" {
		t.Errorf("final = %v, want the two healthy channels", r.Final)
	}
}

func TestDefaultRunsMatchStudy(t *testing.T) {
	runs := DefaultRuns()
	if len(runs) != 5 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Name != store.RunGeneral || runs[0].Button != "" || runs[0].Watch != 900*time.Second {
		t.Errorf("General spec = %+v", runs[0])
	}
	wantButtons := map[store.RunName]appmodel.Key{
		store.RunRed: appmodel.KeyRed, store.RunGreen: appmodel.KeyGreen,
		store.RunBlue: appmodel.KeyBlue, store.RunYellow: appmodel.KeyYellow,
	}
	for _, r := range runs[1:] {
		if r.Button != wantButtons[r.Name] || r.Watch != 1000*time.Second {
			t.Errorf("%s spec = %+v", r.Name, r)
		}
	}
	// Table I dates.
	if runs[1].Date.Format("2006-01-02") != "2023-09-14" {
		t.Errorf("Red date = %v", runs[1].Date)
	}
}

func TestInteractionSequenceFixed(t *testing.T) {
	fw, _ := buildFramework(t, 9, 0.02)
	seq := fw.interaction
	if len(seq) != 10 {
		t.Fatalf("sequence length = %d", len(seq))
	}
	hasEnter := false
	allowed := map[appmodel.Key]bool{
		appmodel.KeyUp: true, appmodel.KeyDown: true, appmodel.KeyLeft: true,
		appmodel.KeyRight: true, appmodel.KeyEnter: true,
	}
	for _, k := range seq {
		if !allowed[k] {
			t.Errorf("unexpected key %v", k)
		}
		if k == appmodel.KeyEnter {
			hasEnter = true
		}
	}
	if !hasEnter {
		t.Error("sequence must contain ENTER at least once")
	}
	// Fixed: a framework built from the same seed presses the same keys.
	again, _ := buildFramework(t, 9, 0.02)
	if !slices.Equal(seq, again.interaction) {
		t.Fatal("interaction sequence not fixed")
	}
}

func TestExecuteRunCollectsEverything(t *testing.T) {
	fw, world := buildFramework(t, 33, 0.05)
	spec := RunSpec{
		Name:      store.RunRed,
		Date:      time.Date(2023, 9, 14, 9, 0, 0, 0, time.UTC),
		Button:    appmodel.KeyRed,
		Watch:     200 * time.Second,
		ShotEvery: 38 * time.Second,
	}
	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	run, err := fw.ExecuteRunContext(context.Background(), spec, channels)
	if err != nil {
		t.Fatal(err)
	}
	avail := world.Availability[store.RunRed]
	if len(run.Channels) != len(avail) {
		t.Errorf("measured %d channels, %d available", len(run.Channels), len(avail))
	}
	for _, ci := range run.Channels {
		if !avail[ci.Name] {
			t.Errorf("measured unavailable channel %s", ci.Name)
		}
	}
	if len(run.Flows) == 0 || len(run.Screenshots) == 0 || len(run.Logs) == 0 {
		t.Errorf("run data incomplete: %d flows, %d shots, %d logs",
			len(run.Flows), len(run.Screenshots), len(run.Logs))
	}
	// Every attributed flow belongs to a measured channel.
	measured := make(map[string]bool)
	for _, ci := range run.Channels {
		measured[ci.Name] = true
	}
	for _, f := range run.Flows {
		if f.Channel != "" && !measured[f.Channel] {
			t.Errorf("flow attributed to unmeasured channel %q", f.Channel)
		}
	}
	// Run date respected.
	if !run.Date.Equal(spec.Date) {
		t.Errorf("run date = %v", run.Date)
	}
	for _, f := range run.Flows {
		if f.Time.Before(spec.Date) {
			t.Errorf("flow timestamp %v before run start", f.Time)
			break
		}
	}
}

func TestExecuteRunWipesBetweenRuns(t *testing.T) {
	fw, world := buildFramework(t, 33, 0.03)
	var channels []*dvb.Service
	for _, ch := range world.Channels {
		channels = append(channels, ch.Service)
	}
	spec := RunSpec{
		Name:  store.RunGeneral,
		Date:  time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC),
		Watch: 60 * time.Second, ShotEvery: 60 * time.Second,
	}
	run1, err := fw.ExecuteRunContext(context.Background(), spec, channels)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := spec
	spec2.Name = store.RunRed
	spec2.Button = appmodel.KeyRed
	spec2.Date = time.Date(2023, 9, 14, 9, 0, 0, 0, time.UTC)
	run2, err := fw.ExecuteRunContext(context.Background(), spec2, channels)
	if err != nil {
		t.Fatal(err)
	}
	// No General flows may leak into Red.
	for _, f := range run2.Flows {
		if f.Time.Before(spec2.Date) {
			t.Fatal("flows from the previous run leaked")
		}
	}
	_ = run1
	// TV browser state starts clean each run: cookies in run2 must all
	// have been created during run2.
	for _, c := range run2.Cookies {
		if c.Created.Before(spec2.Date) {
			t.Errorf("cookie %s/%s created %v, before run start", c.Domain, c.Name, c.Created)
		}
	}
}

func TestProbeDetectsTrafficlessChannels(t *testing.T) {
	fw, world := buildFramework(t, 5, 0.02)
	probe := fw.Probe(20 * time.Second)
	// An HbbTV channel produces traffic.
	saw, err := probe(world.Channels[0].Service)
	if err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Error("HbbTV channel produced no traffic")
	}
	// A bare service without AIT does not.
	bare := &dvb.Service{ServiceID: 9999, Name: "Linear"}
	saw, err = probe(bare)
	if err != nil {
		t.Fatal(err)
	}
	if saw {
		t.Error("AIT-less channel produced traffic")
	}
	// Probe leaves no residue.
	if fw.Recorder.Len() != 0 {
		t.Error("probe left flows behind")
	}
}
