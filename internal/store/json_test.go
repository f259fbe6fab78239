package store

import (
	"bytes"
	"compress/gzip"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

func persistedDataset() *Dataset {
	t0 := time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)
	f := mkFlow("http://tvping.com/t?c=a", "A", false)
	f.ID = 7
	f.RequestHeaders.Set("Referer", "http://a.de/index.html")
	f.RequestBody = []byte("payload")
	f.ResponseHeaders.Add("Set-Cookie", "tvpid=abc; Path=/")
	f.ResponseHeaders.Add("Set-Cookie", "tvpid_a=def; Path=/")
	f.ResponseBody = []byte("<html>body</html>")
	return &Dataset{Runs: []*RunData{{
		Name:     RunRed,
		Date:     t0,
		Channels: []ChannelInfo{{Name: "A", ID: "sid-1", Show: "Tatort", Genre: "Krimi"}},
		Flows:    []*proxy.Flow{f},
		Cookies: []webos.StoredCookie{{
			Name: "tvpid", Value: "abc", Domain: "tvping.com", Path: "/",
			Created: t0, Expires: t0.Add(24 * time.Hour), SetBy: "a.tvping.com",
		}},
		Storage: []webos.StorageItem{{Origin: "http://a.de", Key: "k", Value: "v"}},
		Screenshots: []webos.Screenshot{
			{Time: t0, Channel: "A", ChannelID: "sid-1", HasSignal: true, Show: "Tatort"},
			{Time: t0.Add(time.Minute), Channel: "A", ChannelID: "sid-1", HasSignal: true,
				Overlay: &appmodel.OverlaySpec{
					Type:    appmodel.OverlayPrivacy,
					Privacy: appmodel.PrivacyConsentNotice,
					Consent: &appmodel.ConsentSpec{
						StyleID: 3, Brand: "P7S1", Modal: true,
						Layers: []appmodel.ConsentLayer{{
							Buttons: []appmodel.ConsentButton{{Label: "OK", Role: appmodel.RoleAcceptAll, Highlight: true}},
						}},
					},
				}},
		},
		Logs: []webos.LogEntry{{Time: t0, Kind: webos.LogSwitch, Detail: "switch to A"}},
	}}}
}

// TestSaveLoadRoundTrip loads the gzip-JSON file the former writer wrote
// for fixtureDataset and checks every field against the source.
func TestSaveLoadRoundTrip(t *testing.T) {
	want := fixtureDataset()
	f, err := os.Open(fixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("runs = %d", len(got.Runs))
	}
	gr, wr := got.Runs[0], want.Runs[0]
	if gr.Name != wr.Name || !gr.Date.Equal(wr.Date) {
		t.Errorf("run header = %v %v", gr.Name, gr.Date)
	}
	if !reflect.DeepEqual(gr.Channels, wr.Channels) {
		t.Errorf("channels = %+v", gr.Channels)
	}
	gf, wf := gr.Flows[0], wr.Flows[0]
	if gf.ID != wf.ID || gf.Method != wf.Method || gf.URL.String() != wf.URL.String() {
		t.Errorf("flow identity = %+v", gf)
	}
	if gf.Referer() != wf.Referer() {
		t.Errorf("referer = %q", gf.Referer())
	}
	if !bytes.Equal(gf.RequestBody, wf.RequestBody) || !bytes.Equal(gf.ResponseBody, wf.ResponseBody) {
		t.Error("bodies lost")
	}
	// Set-Cookie multiplicity preserved — the cookie analyses depend on it.
	if got, want := gf.SetCookies(), wf.SetCookies(); len(got) != len(want) || len(got) != 2 {
		t.Errorf("set-cookies = %v", got)
	}
	if gf.ContentType() != wf.ContentType() {
		t.Errorf("content type = %q, want %q", gf.ContentType(), wf.ContentType())
	}
	if !reflect.DeepEqual(gr.Cookies, wr.Cookies) {
		t.Errorf("cookies = %+v", gr.Cookies)
	}
	if !reflect.DeepEqual(gr.Storage, wr.Storage) {
		t.Errorf("storage = %+v", gr.Storage)
	}
	if !reflect.DeepEqual(gr.Screenshots, wr.Screenshots) {
		t.Errorf("screenshots = %+v", gr.Screenshots)
	}
	if !reflect.DeepEqual(gr.Logs, wr.Logs) {
		t.Errorf("logs = %+v", gr.Logs)
	}
	if len(gr.Flows) != len(wr.Flows) || gr.Flows[1].RequestHeaders.Get("Accept") != "text/javascript" ||
		len(gr.Flows[1].RequestHeaders.Values("Accept")) != 2 || gr.Flows[1].ChannelID != "sid-1" {
		t.Errorf("flows = %+v", gr.Flows)
	}
	if gr.RecoveredPanics != wr.RecoveredPanics {
		t.Errorf("recovered panics = %d", gr.RecoveredPanics)
	}
	for name, pair := range map[string][2]any{
		"outcomes":  {gr.Outcomes, wr.Outcomes},
		"telemetry": {got.Telemetry, want.Telemetry},
		"shard":     {got.Shard, want.Shard},
		"trace":     {got.Trace, want.Trace},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s = %+v, want %+v", name, pair[0], pair[1])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not gzip")); err == nil {
		t.Error("Load accepted plain text")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	gzw := newGzipJSON(&buf, `{"version":99,"runs":[]}`)
	_ = gzw
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v", err)
	}
}

// TestLoadIgnoresEventRingFields loads a gzip-JSON dataset whose telemetry
// object carries the fields an earlier writer emitted for its event ring
// (events, droppedEvents, and per-shard droppedEvents): it must load, with
// the same digest and the snapshot's remaining fields intact.
func TestLoadIgnoresEventRingFields(t *testing.T) {
	ds := persistedDataset()
	ds.Telemetry = &telemetry.Snapshot{
		Counters: map[string]uint64{"proxy_flows_recorded": 1},
		Shards:   []telemetry.ShardCounters{{Shard: 0, Counters: map[string]uint64{"proxy_flows_recorded": 1}}},
	}
	raw := referenceJSON(t, ds)
	old := bytes.Replace(raw, []byte(`"telemetry":{`), []byte(`"telemetry":{"events":[{"seq":0,`+
		`"time":"2023-08-21T12:00:00Z","shard":0,"kind":"proxy.flow","detail":"GET tvping.com"}],"droppedEvents":6,`), 1)
	old = bytes.Replace(old, []byte(`{"shard":0,`), []byte(`{"shard":0,"droppedEvents":6,`), 1)
	if bytes.Count(old, []byte(`"droppedEvents":6`)) != 2 {
		t.Fatalf("telemetry object not found in the saved JSON:\n%s", raw)
	}
	var oldBuf bytes.Buffer
	if err := newGzipJSON(&oldBuf, string(old)); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&oldBuf)
	if err != nil {
		t.Fatalf("dataset with event ring fields does not load: %v", err)
	}
	if got, want := mustDigest(t, loaded), mustDigest(t, ds); got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
	if !reflect.DeepEqual(loaded.Telemetry, ds.Telemetry) {
		t.Fatalf("telemetry = %+v, want %+v", loaded.Telemetry, ds.Telemetry)
	}
}

// newGzipJSON writes raw JSON gzip-compressed into buf.
func newGzipJSON(buf *bytes.Buffer, raw string) error {
	gz := gzip.NewWriter(buf)
	if _, err := gz.Write([]byte(raw)); err != nil {
		return err
	}
	return gz.Close()
}
