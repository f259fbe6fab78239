package store

import (
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
)

func TestPrimaryCategoryEmpty(t *testing.T) {
	c := &ChannelInfo{Name: "X"}
	if c.PrimaryCategory() != "" {
		t.Error("empty categories should yield empty primary")
	}
	if c.TargetsChildren() {
		t.Error("no categories should not target children")
	}
}

func TestTargetsChildrenRequiresExclusivity(t *testing.T) {
	mixed := &ChannelInfo{Categories: []dvb.ServiceCategory{dvb.CategoryChildren, dvb.CategoryGeneral}}
	if mixed.TargetsChildren() {
		t.Error("multi-category channel must not count as exclusively children")
	}
}

func TestDatasetRunMissing(t *testing.T) {
	d := &Dataset{}
	if d.Run(RunRed) != nil {
		t.Error("empty dataset returned a run")
	}
	if d.ChannelInfo("x") != nil {
		t.Error("empty dataset returned channel info")
	}
	if len(d.ChannelNames()) != 0 {
		t.Error("empty dataset has data")
	}
}

func TestExportFlowsEmpty(t *testing.T) {
	var sb strings.Builder
	if err := (&Dataset{}).ExportFlows(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("empty export wrote %q", sb.String())
	}
}

func TestAllRunsOrder(t *testing.T) {
	want := []RunName{RunGeneral, RunRed, RunGreen, RunBlue, RunYellow}
	if len(AllRuns) != len(want) {
		t.Fatalf("AllRuns = %v", AllRuns)
	}
	for i := range want {
		if AllRuns[i] != want[i] {
			t.Fatalf("AllRuns = %v, want %v", AllRuns, want)
		}
	}
}
