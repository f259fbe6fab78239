package webos

import (
	"net/http"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/headend"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// TestBeaconAllocations pins what one beacon costs end to end: the TV
// builds the URL and its one request, the recorder records the flow,
// hostnet dispatches it and a TrackerService answers with its pixel, the
// tracker's cookie already in the jar. The bound is the count measured on
// go1.24/amd64 plus a little headroom for other Go releases; a change
// that puts a parse or a copy back on the request path breaks it.
func TestBeaconAllocations(t *testing.T) {
	const (
		measured = 2
		headroom = 4
	)
	in := hostnet.New()
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC))
	headend.NewTrackerService(headend.Tracker{
		Domain: "trk.example", CookieName: "uid", CookieKind: headend.CookieID,
	}, clk, 1).Install(in)
	doc := &appmodel.Document{App: &appmodel.AppSpec{Beacons: []appmodel.BeaconSpec{{
		URL:             "http://px.trk.example/px",
		IntervalSeconds: 10,
		Params:          map[string]string{"c": "{channel}", "uid": "{user}", "t": "{unix}"},
	}}}}
	markup, err := doc.RenderHTML()
	if err != nil {
		t.Fatal(err)
	}
	in.HandleFunc("hbbtv.alloc.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
		_, _ = w.Write(markup)
	})
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, clk)
	tv := New(Config{Clock: clk, Transport: rec, Seed: 1, OnSwitch: rec.SwitchChannel})
	tv.PowerOn()
	svc := &dvb.Service{ServiceID: 1, Name: "Alloc", AITSection: dvb.MustEncodeAIT(&dvb.AIT{
		Applications: []dvb.Application{{
			OrganizationID: 1, ApplicationID: 1, Control: dvb.ControlAutostart,
			URLBase: "http://hbbtv.alloc.example/", InitialPath: "index.html",
		}},
	})}
	if err := tv.TuneTo(svc); err != nil {
		t.Fatal(err)
	}
	tv.fireBeacon(0) // the first beacon mints the tracker's cookie
	before := rec.Len()
	allocs := testing.AllocsPerRun(500, func() { tv.fireBeacon(0) })
	if rec.Len() == before {
		t.Fatal("no beacon was recorded")
	}
	if f := rec.Flows()[rec.Len()-1]; f.RequestHeaders.Get("Cookie") == "" || f.StatusCode != http.StatusOK {
		t.Fatalf("beacon flow = %d %v, want a 200 carrying the tracker's cookie", f.StatusCode, f.RequestHeaders)
	}
	t.Logf("one beacon: %.0f allocations", allocs)
	if allocs > measured+headroom {
		t.Errorf("one beacon allocates %.0f objects, want <= %d (measured %d + headroom %d)",
			allocs, measured+headroom, measured, headroom)
	}
}
