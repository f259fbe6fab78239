package cli

import (
	"bytes"
	"flag"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
)

func TestShardSet(t *testing.T) {
	good := []struct {
		in       string
		idx, of  int
		rendered string
	}{
		{"0/1", 0, 1, "0/1"},
		{"0/4", 0, 4, "0/4"},
		{"3/4", 3, 4, "3/4"},
		{"15/16", 15, 16, "15/16"},
	}
	for _, tc := range good {
		var s Shard
		if err := s.Set(tc.in); err != nil {
			t.Errorf("Set(%q): %v", tc.in, err)
			continue
		}
		if s.Index != tc.idx || s.Of != tc.of {
			t.Errorf("Set(%q) = %d/%d, want %d/%d", tc.in, s.Index, s.Of, tc.idx, tc.of)
		}
		if !s.Enabled() {
			t.Errorf("Set(%q): not Enabled", tc.in)
		}
		if s.String() != tc.rendered {
			t.Errorf("Set(%q).String() = %q, want %q", tc.in, s.String(), tc.rendered)
		}
	}

	bad := []string{"", "3", "3/", "/4", "a/4", "3/b", "3/0", "-1/4", "4/4", "5/4", "0/-2", "1.5/4"}
	for _, in := range bad {
		var s Shard
		if err := s.Set(in); err == nil {
			t.Errorf("Set(%q) accepted: %+v", in, s)
		}
	}

	var zero Shard
	if zero.Enabled() {
		t.Error("zero Shard is Enabled")
	}
	if zero.String() != "" {
		t.Errorf("zero Shard renders %q, want empty", zero.String())
	}
}

func TestShardFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s Shard
	s.Register(fs)
	if err := fs.Parse([]string{"-shard", "2/8"}); err != nil {
		t.Fatal(err)
	}
	if s.Index != 2 || s.Of != 8 || !s.Enabled() {
		t.Errorf("parsed %+v", s)
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	var s2 Shard
	s2.Register(fs2)
	if err := fs2.Parse([]string{"-shard", "8/8"}); err == nil {
		t.Error("out-of-range -shard accepted")
	}
}

func TestJobsValidate(t *testing.T) {
	if err := (&Jobs{N: -1}).Validate(); err == nil {
		t.Error("negative -j accepted")
	}
	if err := (&Jobs{N: 0}).Validate(); err != nil {
		t.Errorf("j=0: %v", err)
	}
	if err := (&Jobs{N: 8}).Validate(); err != nil {
		t.Errorf("j=8: %v", err)
	}
}

func TestTelemetryOn(t *testing.T) {
	cases := []struct {
		t    Telemetry
		want bool
	}{
		{Telemetry{}, false},
		{Telemetry{Enabled: true}, true},
		{Telemetry{JSONPath: "x"}, true},
		{Telemetry{HTTPAddr: ":0"}, true},
	}
	for _, tc := range cases {
		if tc.t.On() != tc.want {
			t.Errorf("%+v On() = %v", tc.t, tc.t.On())
		}
	}
}

// TestOutputWriteDigest: with -snapshot, Write returns the dataset's
// digest (which leaves out telemetry) alongside the file it wrote, and the
// file loads back to that digest and telemetry; without it Write returns
// "" and writes nothing.
func TestOutputWriteDigest(t *testing.T) {
	u, _ := url.Parse("http://a.de/x?y=1")
	ds := &store.Dataset{
		Runs:      []*store.RunData{{Name: store.RunRed, Flows: []*proxy.Flow{{ID: 1, Method: "GET", URL: u, Channel: "A"}}}},
		Telemetry: &telemetry.Snapshot{Counters: map[string]uint64{"proxy_flows_recorded": 1}},
	}
	want, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := Output{SnapshotPath: filepath.Join(dir, "ds.snap")}
	var log bytes.Buffer
	got, err := o.Write(&log, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Write returned digest %q, want %q", got, want)
	}
	if !strings.Contains(log.String(), "snapshot written to "+o.SnapshotPath) {
		t.Errorf("no snapshot line in %q", log.String())
	}
	f, err := os.Open(o.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d, err := loaded.Digest(); err != nil || d != want {
		t.Errorf("%s loads to digest %q (%v), want %q", o.SnapshotPath, d, err, want)
	}
	if !reflect.DeepEqual(loaded.Telemetry, ds.Telemetry) {
		t.Errorf("telemetry = %+v, want %+v", loaded.Telemetry, ds.Telemetry)
	}
	log.Reset()
	if got, err := (&Output{}).Write(&log, ds); err != nil || got != "" || log.Len() != 0 {
		t.Errorf("no -snapshot: digest %q, %v, output %q", got, err, log.String())
	}
}
