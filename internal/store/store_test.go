package store

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

func mkFlow(rawURL, channel string, https bool) *proxy.Flow {
	u, _ := url.Parse(rawURL)
	return &proxy.Flow{
		Time:            time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC),
		Method:          http.MethodGet,
		URL:             u,
		HTTPS:           https,
		StatusCode:      200,
		Channel:         channel,
		RequestHeaders:  http.Header{},
		ResponseHeaders: http.Header{"Content-Type": []string{"image/gif"}},
		ResponseSize:    35,
	}
}

func sampleDataset() *Dataset {
	return &Dataset{Runs: []*RunData{
		{
			Name: RunGeneral,
			Date: time.Date(2023, 8, 21, 0, 0, 0, 0, time.UTC),
			Channels: []ChannelInfo{
				{Name: "KiKA", ID: "sid-1", Categories: []dvb.ServiceCategory{dvb.CategoryChildren}},
				{Name: "n-tv", ID: "sid-2", Categories: []dvb.ServiceCategory{dvb.CategoryNews, dvb.CategoryGeneral}},
			},
			Flows: []*proxy.Flow{
				mkFlow("http://a.de/x", "KiKA", false),
				mkFlow("https://b.de/y", "KiKA", true),
				mkFlow("http://c.de/z", "n-tv", false),
				mkFlow("http://d.de/w", "", false), // unattributed
			},
		},
		{
			Name:     RunRed,
			Channels: []ChannelInfo{{Name: "KiKA", ID: "sid-1"}},
			Flows:    []*proxy.Flow{mkFlow("http://a.de/r", "KiKA", false)},
		},
	}}
}

func TestRunLookupAndChannel(t *testing.T) {
	d := sampleDataset()
	if d.Run(RunGeneral) == nil || d.Run(RunYellow) != nil {
		t.Fatal("Run lookup broken")
	}
	r := d.Run(RunGeneral)
	if c := r.Channel("n-tv"); c == nil || c.ID != "sid-2" {
		t.Errorf("Channel(n-tv) = %+v", c)
	}
	if r.Channel("ghost") != nil {
		t.Error("Channel(ghost) should be nil")
	}
}

func TestFlowsByChannelDropsUnattributed(t *testing.T) {
	ix, err := BuildIndex(context.Background(), sampleDataset(), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	by := ix.Runs[0].RequestsByChannel
	if len(by) != 2 {
		t.Fatalf("groups = %d", len(by))
	}
	if by["KiKA"] != 2 || by["n-tv"] != 1 {
		t.Errorf("group sizes: KiKA=%d n-tv=%d", by["KiKA"], by["n-tv"])
	}
}

func TestHTTPSShare(t *testing.T) {
	r := sampleDataset().Run(RunGeneral)
	plain, https := r.CountHTTPS()
	if plain != 3 || https != 1 {
		t.Errorf("counts = %d/%d", plain, https)
	}
	if got := r.HTTPSShare(); got != 0.25 {
		t.Errorf("share = %v", got)
	}
	empty := &RunData{}
	if empty.HTTPSShare() != 0 {
		t.Error("empty run share should be 0")
	}
}

func TestChildrenTarget(t *testing.T) {
	d := sampleDataset()
	if !d.ChannelInfo("KiKA").TargetsChildren() {
		t.Error("KiKA should target children")
	}
	if d.ChannelInfo("n-tv").TargetsChildren() {
		t.Error("n-tv should not target children")
	}
	if got := d.ChannelInfo("n-tv").PrimaryCategory(); got != dvb.CategoryNews {
		t.Errorf("primary category = %q", got)
	}
}

func TestDatasetAggregates(t *testing.T) {
	d := sampleDataset()
	if got := len(d.Runs[0].Flows) + len(d.Runs[1].Flows); got != 5 {
		t.Errorf("flows = %d", got)
	}
	names := d.ChannelNames()
	if len(names) != 2 {
		t.Errorf("ChannelNames = %v", names)
	}
}

func TestExportFlowsNDJSON(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := d.ExportFlows(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("exported %d lines, want 5", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["run"] != "General" || rec["url"] != "http://a.de/x" {
		t.Errorf("record = %v", rec)
	}
}

func TestSummaries(t *testing.T) {
	d := sampleDataset()
	sums := d.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Run != RunGeneral || sums[0].HTTPRequests != 4 || sums[0].Channels != 2 {
		t.Errorf("summary[0] = %+v", sums[0])
	}
}
