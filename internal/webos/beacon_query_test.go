package webos

import (
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// queryBeacons are the beacons of TestTVBeaconQueryCache, keyed by host:
// one reading the session, one reading {unixtime}, a burst reading
// {localtime} and a value that needs escaping, and one without variables.
var queryBeacons = map[string]appmodel.BeaconSpec{
	"a.beacon.example": {URL: "http://a.beacon.example/t", IntervalSeconds: 1,
		Params: map[string]string{"c": "{channel}", "s": "{session}", "u": "{user}"}},
	"b.beacon.example": {URL: "http://b.beacon.example/t", IntervalSeconds: 1,
		Params: map[string]string{"t": "{unixtime}", "id": "{channelId}"}},
	"c.beacon.example": {URL: "http://c.beacon.example/t", IntervalSeconds: 7, Burst: 3,
		Params: map[string]string{"lt": "{localtime}", "show": "{show}", "x": "a b&c"}},
	"d.beacon.example": {URL: "http://d.beacon.example/t", IntervalSeconds: 5,
		Params: map[string]string{"v": "1", "m": "{model}"}},
}

// TestTVBeaconQueryCache: over a multi-minute Watch in screenshot-cadence
// slices, with a PowerOn under the running app halfway, every beacon flow
// carries exactly the query a per-fire render (url.Values over the
// expanded templates) gives at that flow's instant. A {unixtime} beacon
// changes every second, and the session moves in every beacon fired
// after the PowerOn.
func TestTVBeaconQueryCache(t *testing.T) {
	in := hostnet.New()
	beacons := make([]appmodel.BeaconSpec, 0, len(queryBeacons))
	for host, b := range queryBeacons {
		beacons = append(beacons, b)
		in.HandleFunc(host, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "image/gif")
		})
	}
	markup, err := (&appmodel.Document{App: &appmodel.AppSpec{Beacons: beacons}}).RenderHTML()
	if err != nil {
		t.Fatal(err)
	}
	in.HandleFunc("hbbtv.query.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
		_, _ = w.Write(markup)
	})
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC))
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, clk)
	tv := New(Config{Clock: clk, Transport: rec, Seed: 3, OnSwitch: rec.SwitchChannel})
	svc := &dvb.Service{ServiceID: 9, Name: "Query TV", CurrentShow: "Late Quiz", CurrentGenre: "Show",
		AITSection: dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
			OrganizationID: 1, ApplicationID: 1, Control: dvb.ControlAutostart,
			URLBase: "http://hbbtv.query.example/", InitialPath: "index.html",
		}}})}
	tv.PowerOn()
	if err := tv.TuneTo(svc); err != nil {
		t.Fatal(err)
	}
	sessions := []string{tv.SessionID()}
	var powerOnAt int // index of the first flow after the second PowerOn
	for slice := 0; slice < 30; slice++ {
		if slice == 15 {
			tv.PowerOn()
			sessions = append(sessions, tv.SessionID())
			powerOnAt = rec.Len()
		}
		tv.Watch(10 * time.Second)
	}
	if sessions[0] == sessions[1] {
		t.Fatal("PowerOn kept the session")
	}

	fired := make(map[string]int)
	var lastUnix []string
	for i, f := range rec.Flows() {
		b, ok := queryBeacons[f.Host()]
		if !ok {
			continue
		}
		fired[f.Host()]++
		session := sessions[0]
		if i >= powerOnAt {
			session = sessions[1]
		}
		vars := appmodel.Vars{
			Channel: svc.Name, ChannelID: "sid-9", Show: svc.CurrentShow, Genre: svc.CurrentGenre,
			SessionID: session, UserID: tv.UserID(),
			Manufacturer: LGDevice.Manufacturer, Model: LGDevice.Model, OS: LGDevice.OS, Language: LGDevice.Language,
			LocalTime: f.Time.Format("2006-01-02T15:04:05"), UnixTime: f.Time.Unix(),
		}
		q := url.Values{}
		for k, v := range b.Params {
			q.Set(k, vars.Expand(v))
		}
		if got, want := f.URL.RawQuery, q.Encode(); got != want {
			t.Fatalf("flow %d to %s at %v carries %q, a per-fire render gives %q", i, f.Host(), f.Time, got, want)
		}
		if f.Host() == "b.beacon.example" {
			lastUnix = append(lastUnix, f.URL.Query().Get("t"))
		}
	}
	// 300 s of watching: 300 fires at 1 s, 42 ticks of 3 at 7 s, 60 at 5 s.
	for host, want := range map[string]int{"a.beacon.example": 300, "b.beacon.example": 300, "c.beacon.example": 126, "d.beacon.example": 60} {
		if fired[host] != want {
			t.Errorf("%s fired %d times, want %d", host, fired[host], want)
		}
	}
	for i := 1; i < len(lastUnix); i++ {
		if lastUnix[i] == lastUnix[i-1] {
			t.Fatalf("the {unixtime} beacon repeated %s on consecutive seconds", lastUnix[i])
		}
	}
}
