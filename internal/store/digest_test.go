package store

import (
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// digestFixture is persistedDataset with every optional run field set, so
// each field a run section carries has a value to change.
func digestFixture() *Dataset {
	ds := persistedDataset()
	r := ds.Runs[0]
	c := &r.Channels[0]
	c.Satellite, c.Language = "Astra 19.2E", "deu"
	c.Categories = []dvb.ServiceCategory{dvb.CategoryChildren}
	r.Outcomes = []ChannelOutcome{{Channel: "A", Status: OutcomeOK, Attempts: 2, Error: "retried"}}
	r.RecoveredPanics = 1
	f := r.Flows[0]
	f.Time = r.Date
	f.ChannelID = "sid-1"
	f.ResponseSize = 17
	return ds
}

func mustDigest(t *testing.T, ds *Dataset) string {
	t.Helper()
	d, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestFieldSensitivity: changing any field a run section carries
// changes Digest, and a nil channel list differs from an empty one, while
// the telemetry snapshot, the shard manifest and the span trace stay
// outside it.
func TestDigestFieldSensitivity(t *testing.T) {
	base := mustDigest(t, digestFixture())
	second := time.Second
	cases := []struct {
		name   string
		mutate func(r *RunData)
	}{
		{"run name", func(r *RunData) { r.Name = RunBlue }},
		{"run date", func(r *RunData) { r.Date = r.Date.Add(second) }},
		{"channel name", func(r *RunData) { r.Channels[0].Name = "B" }},
		{"channel id", func(r *RunData) { r.Channels[0].ID = "sid-2" }},
		{"channel satellite", func(r *RunData) { r.Channels[0].Satellite = "Hotbird" }},
		{"channel language", func(r *RunData) { r.Channels[0].Language = "fra" }},
		{"channel categories", func(r *RunData) { r.Channels[0].Categories = []dvb.ServiceCategory{dvb.CategoryNews} }},
		{"channel show", func(r *RunData) { r.Channels[0].Show = "Tagesschau" }},
		{"channel genre", func(r *RunData) { r.Channels[0].Genre = "News" }},
		{"cookie name", func(r *RunData) { r.Cookies[0].Name = "other" }},
		{"cookie value", func(r *RunData) { r.Cookies[0].Value = "xyz" }},
		{"cookie domain", func(r *RunData) { r.Cookies[0].Domain = "other.com" }},
		{"cookie path", func(r *RunData) { r.Cookies[0].Path = "/x" }},
		{"cookie expires", func(r *RunData) { r.Cookies[0].Expires = r.Cookies[0].Expires.Add(second) }},
		{"cookie created", func(r *RunData) { r.Cookies[0].Created = r.Cookies[0].Created.Add(second) }},
		{"cookie host-only", func(r *RunData) { r.Cookies[0].HostOnly = true }},
		{"cookie set-by", func(r *RunData) { r.Cookies[0].SetBy = "b.tvping.com" }},
		{"storage origin", func(r *RunData) { r.Storage[0].Origin = "http://b.de" }},
		{"storage key", func(r *RunData) { r.Storage[0].Key = "k2" }},
		{"storage value", func(r *RunData) { r.Storage[0].Value = "v2" }},
		{"screenshot time", func(r *RunData) { r.Screenshots[0].Time = r.Screenshots[0].Time.Add(second) }},
		{"screenshot channel", func(r *RunData) { r.Screenshots[0].Channel = "B" }},
		{"screenshot channel id", func(r *RunData) { r.Screenshots[0].ChannelID = "sid-2" }},
		{"screenshot signal", func(r *RunData) { r.Screenshots[0].HasSignal = false }},
		{"screenshot show", func(r *RunData) { r.Screenshots[0].Show = "Tagesschau" }},
		{"screenshot overlay", func(r *RunData) { r.Screenshots[1].Overlay = nil }},
		{"screenshot overlay field", func(r *RunData) { r.Screenshots[1].Overlay.Consent.StyleID++ }},
		{"log time", func(r *RunData) { r.Logs[0].Time = r.Logs[0].Time.Add(second) }},
		{"log kind", func(r *RunData) { r.Logs[0].Kind = webos.LogApp }},
		{"log detail", func(r *RunData) { r.Logs[0].Detail = "switch to B" }},
		{"outcome channel", func(r *RunData) { r.Outcomes[0].Channel = "B" }},
		{"outcome status", func(r *RunData) { r.Outcomes[0].Status = OutcomeFailed }},
		{"outcome attempts", func(r *RunData) { r.Outcomes[0].Attempts = 3 }},
		{"outcome error", func(r *RunData) { r.Outcomes[0].Error = "timeout" }},
		{"recovered panics", func(r *RunData) { r.RecoveredPanics = 2 }},
		{"flow id", func(r *RunData) { r.Flows[0].ID = 8 }},
		{"flow time", func(r *RunData) { r.Flows[0].Time = r.Flows[0].Time.Add(second) }},
		{"flow method", func(r *RunData) { r.Flows[0].Method = "POST" }},
		{"flow url", func(r *RunData) { r.Flows[0].URL = &url.URL{Scheme: "http", Host: "tvping.com", Path: "/u"} }},
		{"flow https", func(r *RunData) { r.Flows[0].HTTPS = true }},
		{"flow request header", func(r *RunData) { r.Flows[0].RequestHeaders = http.Header{"Referer": {"http://b.de/"}} }},
		{"flow request body", func(r *RunData) { r.Flows[0].RequestBody = []byte("other") }},
		{"flow status", func(r *RunData) { r.Flows[0].StatusCode = 404 }},
		{"flow response header", func(r *RunData) { r.Flows[0].ResponseHeaders.Set("Content-Type", "text/html") }},
		{"flow set-cookie", func(r *RunData) { r.Flows[0].ResponseHeaders.Del("Set-Cookie") }},
		{"flow response size", func(r *RunData) { r.Flows[0].ResponseSize = 18 }},
		{"flow response body", func(r *RunData) { r.Flows[0].ResponseBody = nil }},
		{"flow channel", func(r *RunData) { r.Flows[0].Channel = "B" }},
		{"flow channel id", func(r *RunData) { r.Flows[0].ChannelID = "sid-2" }},
	}
	for _, tc := range cases {
		ds := digestFixture()
		tc.mutate(ds.Runs[0])
		if mustDigest(t, ds) == base {
			t.Errorf("%s: digest unchanged", tc.name)
		}
	}

	withChannels := func(ch []ChannelInfo) *Dataset {
		ds := digestFixture()
		ds.Runs[0].Channels = ch
		return ds
	}
	if mustDigest(t, withChannels(nil)) == mustDigest(t, withChannels([]ChannelInfo{})) {
		t.Error("nil and empty channel lists share a digest")
	}

	ds := digestFixture()
	ds.Telemetry = &telemetry.Snapshot{Counters: map[string]uint64{"proxy_flows_recorded": 1}}
	ds.Shard = &ShardManifest{Shard: 1, Campaign: Campaign{Shards: 2, ChannelOrder: []string{"A", "B"}}}
	ds.Trace = &telemetry.Trace{Spans: []telemetry.Span{{Name: "visit"}}}
	if got := mustDigest(t, ds); got != base {
		t.Errorf("telemetry, shard manifest and trace changed the digest: %s != %s", got, base)
	}
}
