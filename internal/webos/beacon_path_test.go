package webos

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/clock"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/hostnet"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// pathBeacons are the beacon URLs of TestBeaconPathMatchesMerge, none of
// them a plain query-free path.
var pathBeacons = []appmodel.BeaconSpec{
	// The URL's own query shares a key with a template, twice over.
	{URL: "http://q.path.example/t?c=old&z=1&c=again", Params: map[string]string{"c": "{channel}", "a": "{unixtime}"}},
	// A fragment, alone and after a query.
	{URL: "http://f.path.example/t#sec", Params: map[string]string{"s": "{show}"}},
	{URL: "http://f.path.example/t?a=1#sec%20two", Params: map[string]string{"b": "{user}"}},
	// A forced "?", with and without parameters.
	{URL: "http://fq.path.example/t?", Params: map[string]string{"s": "{session}"}},
	{URL: "http://fq.path.example/t?"},
	// Escaped characters in the path, the query (a pair that does not
	// unescape and an empty key among them) and the templates.
	{URL: "http://e.path.example/p%20a/b%2Fc?x=a%20b&y=%26+z&bad=%zz&=v", Params: map[string]string{"k y": "a b&c", "x": "{show}"}},
	// An empty port, which a request drops.
	{URL: "http://q.path.example:/t?p=", Params: map[string]string{"c": "{channel}"}},
	// A relative URL, resolved against the application's base.
	{URL: "px?id=3", Params: map[string]string{"u": "{user}"}},
	// A URL that does not parse, and one whose host does not answer.
	{URL: "http://u.path.example/%zz", Params: map[string]string{"c": "{channel}"}},
	{URL: "http://gone.path.example/t?x=1", Params: map[string]string{"c": "{channel}"}},
}

// fireBeaconMerge is the reference fireBeacon must match: expand every
// template, add the values to the URL's own query with url.Values.Add
// (addQuery, as the app's leak reports do), and GET the string form,
// parsed afresh on every fire.
func (tv *TV) fireBeaconMerge(bi int) {
	app := tv.app
	vars := tv.appVars(true)
	b := app.beacons[bi]
	q := url.Values{}
	for k, v := range b.Params {
		q.Set(k, vars.Expand(v))
	}
	u := addQuery(resolveRef(app.baseURL, b.URL), q)
	if err := tv.get(u, app.baseStr); err != nil {
		tv.logf(LogError, "beacon %s: %v", u, err)
	}
}

// TestBeaconPathMatchesMerge: for every beacon URL the one beacon path
// records the flow URL, and logs the entries, that parsing, merging and
// re-encoding the URL per fire gives, on the first fire and on a later
// one that reuses the rendered query.
func TestBeaconPathMatchesMerge(t *testing.T) {
	in := hostnet.New()
	for _, host := range []string{"q.path.example", "f.path.example", "fq.path.example", "e.path.example"} {
		in.HandleFunc(host, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "image/gif")
		})
	}
	markup, err := (&appmodel.Document{App: &appmodel.AppSpec{Beacons: pathBeacons}}).RenderHTML()
	if err != nil {
		t.Fatal(err)
	}
	in.HandleFunc("hbbtv.path.example", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/vnd.hbbtv.xhtml+xml")
		_, _ = w.Write(markup)
	})
	clk := clock.NewVirtual(time.Date(2023, 8, 21, 18, 0, 0, 0, time.UTC))
	rec := proxy.NewRecorder(&hostnet.Transport{Net: in}, clk)
	tv := New(Config{Clock: clk, Transport: rec, Seed: 5, OnSwitch: rec.SwitchChannel})
	svc := &dvb.Service{ServiceID: 4, Name: "Path TV", CurrentShow: "Q&A Night", CurrentGenre: "Show",
		AITSection: dvb.MustEncodeAIT(&dvb.AIT{Applications: []dvb.Application{{
			OrganizationID: 1, ApplicationID: 1, Control: dvb.ControlAutostart,
			URLBase: "http://hbbtv.path.example/", InitialPath: "index.html",
		}}})}
	tv.PowerOn()
	if err := tv.TuneTo(svc); err != nil {
		t.Fatal(err)
	}
	if len(tv.app.beacons) != len(pathBeacons) {
		t.Fatalf("the app carries %d beacons, want %d", len(tv.app.beacons), len(pathBeacons))
	}

	// fire runs one path and returns the flow URLs and log entries it added.
	fire := func(path func(int), bi int) ([]*url.URL, []LogEntry) {
		flows, logs := rec.Len(), len(tv.Logs())
		path(bi)
		var urls []*url.URL
		for _, f := range rec.Flows()[flows:] {
			urls = append(urls, f.URL)
		}
		return urls, tv.Logs()[logs:]
	}
	for round := 0; round < 2; round++ {
		for bi, b := range pathBeacons {
			gotURLs, gotLogs := fire(tv.fireBeacon, bi)
			wantURLs, wantLogs := fire(tv.fireBeaconMerge, bi)
			if !reflect.DeepEqual(gotURLs, wantURLs) {
				t.Errorf("round %d, %s: flow URLs\n%#v\nwant\n%#v", round, b.URL, gotURLs, wantURLs)
			}
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Errorf("round %d, %s: log entries\n%+v\nwant\n%+v", round, b.URL, gotLogs, wantLogs)
			}
			if len(gotURLs)+len(gotLogs) == 0 {
				t.Errorf("round %d, %s: no flow and no log entry", round, b.URL)
			}
		}
		clk.Sleep(90 * time.Second)
	}
}
