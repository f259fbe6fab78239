package store

import (
	"bytes"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
)

// loadBoth saves ds in both formats and loads both back through Load's
// format sniffing, failing on any error.
func loadBoth(t *testing.T, ds *Dataset) (fromJSON, fromSnap *Dataset) {
	t.Helper()
	var jb, sb bytes.Buffer
	if err := Save(&jb, ds, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := Save(&sb, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	var err error
	if fromJSON, err = Load(&jb); err != nil {
		t.Fatalf("load json: %v", err)
	}
	if fromSnap, err = Load(&sb); err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	return fromJSON, fromSnap
}

// TestSnapshotMatchesJSONLoad: loading a snapshot must produce the exact
// in-memory dataset loading the gzip-JSON form produces, on a fixture that
// exercises overlays, cookies, storage, logs, and multi-value Set-Cookie.
func TestSnapshotMatchesJSONLoad(t *testing.T) {
	fromJSON, fromSnap := loadBoth(t, persistedDataset())
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		t.Fatalf("snapshot load differs from json load:\njson: %+v\nsnap: %+v", fromJSON, fromSnap)
	}
}

// TestSnapshotFlowEdgeCases drives the flow record encoder through its
// corners: the zero time, URLs the decomposed fast path must reject,
// multi-value headers, shared bodies, and an unattributed flow.
func TestSnapshotFlowEdgeCases(t *testing.T) {
	t0 := time.Date(2023, 8, 21, 12, 0, 0, 0, time.UTC)
	mk := func(raw string) *proxy.Flow {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &proxy.Flow{
			Time: t0, Method: "GET", URL: u, StatusCode: 200,
			RequestHeaders:  http.Header{},
			ResponseHeaders: http.Header{"Content-Type": {"text/html"}},
		}
	}

	zeroTime := mk("http://a.example.de/px")
	zeroTime.Time = time.Time{}

	// %2F in the path forces RawPath on re-parse, so the four-field
	// reassembly is not byte-faithful and the encoder must fall back to
	// storing the full URL string.
	escaped := mk("http://a.example.de/a%2Fb?x=1")

	fragment := mk("http://a.example.de/page#top")

	multi := mk("https://b.example.de/app")
	multi.HTTPS = true
	multi.RequestHeaders.Add("Accept", "text/html")
	multi.RequestHeaders.Add("Accept", "image/gif")
	multi.ResponseHeaders.Add("Set-Cookie", "a=1; Path=/")
	multi.ResponseHeaders.Add("Set-Cookie", "b=2; Path=/")
	multi.ResponseBody = []byte("<html>shared</html>")

	shared := mk("https://b.example.de/app2")
	shared.ResponseBody = []byte("<html>shared</html>") // same blob as multi
	shared.RequestBody = []byte("post-data")
	shared.Channel, shared.ChannelID = "B", "sid-2"

	unattributed := mk("http://t.example.de/beacon")
	unattributed.StatusCode = 504
	unattributed.ResponseSize = 1 << 20

	flows := []*proxy.Flow{zeroTime, escaped, fragment, multi, shared, unattributed}
	for i, f := range flows {
		f.ID = int64(i + 1)
	}
	ds := &Dataset{Runs: []*RunData{{Name: RunRed, Date: t0, Flows: flows}}}

	fromJSON, fromSnap := loadBoth(t, ds)
	if !reflect.DeepEqual(fromJSON, fromSnap) {
		for i := range fromJSON.Runs[0].Flows {
			a, b := fromJSON.Runs[0].Flows[i], fromSnap.Runs[0].Flows[i]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("flow %d differs:\njson: %#v\nsnap: %#v", i, a, b)
			}
		}
		t.Fatal("snapshot load differs from json load")
	}

	// The digest must not care which format the dataset came through.
	want, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromSnap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("snapshot-loaded digest %s != original %s", got, want)
	}
}

// TestSnapshotRejectsCorruption: version, magic, and truncation must fail
// loudly, never panic or return a half-dataset.
func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, persistedDataset(), FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(strings.NewReader("HBnonsense")); err == nil {
		t.Error("bad magic accepted")
	}

	wrongVer := bytes.Clone(raw)
	wrongVer[4] = 99
	if _, err := Load(bytes.NewReader(wrongVer)); err == nil {
		t.Error("wrong version accepted")
	}

	// The five header bytes alone are a truncated snapshot — the end
	// marker is missing — and anything cut mid-section must fail too.
	if _, err := Load(bytes.NewReader(raw[:5])); err == nil {
		t.Error("header-only snapshot accepted despite missing end marker")
	}
	for _, cut := range []int{7, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	flipped := bytes.Clone(raw)
	flipped[6] ^= 0xff // inside the string table section header
	if _, err := Load(bytes.NewReader(flipped)); err == nil {
		t.Log("section-header flip still decoded (length happened to stay plausible)")
	}
}

// TestSnapshotSkipsUnknownSection: a snapshot carrying a section tag this
// reader does not know must still load — the length prefix makes unknown
// sections skippable, which is the format's forward-compatibility story.
func TestSnapshotSkipsUnknownSection(t *testing.T) {
	ds := persistedDataset()
	var buf bytes.Buffer
	if err := Save(&buf, ds, FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	// Append an unknown trailing section: tag 200, 3-byte payload.
	buf.Write([]byte{200, 3, 0xde, 0xad, 0xbf})
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("unknown section broke the load: %v", err)
	}
	if len(got.Runs) != len(ds.Runs) {
		t.Fatalf("got %d runs, want %d", len(got.Runs), len(ds.Runs))
	}
}

// farFutureDataset carries times UnixNano cannot hold: the far-future
// Expires sentinel servers send (Fri, 31 Dec 9999 23:59:59 GMT), which the
// TV's jar stores verbatim, a non-zero year-1 expiry, and a year-9999 flow.
func farFutureDataset() *Dataset {
	ds := persistedDataset()
	r := ds.Runs[0]
	far := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	r.Cookies[0].Expires = far
	early := r.Cookies[0]
	early.Name, early.Expires = "early", time.Date(1, 1, 1, 0, 0, 1, 500, time.UTC)
	r.Cookies = append(r.Cookies, early)
	r.Flows[0].Time = far
	return ds
}

// TestSnapshotTimesOutsideUnixNano: times before 1678 or after 2262 survive
// both formats and the checkpoint container exactly.
func TestSnapshotTimesOutsideUnixNano(t *testing.T) {
	ds := farFutureDataset()
	want := ds.Runs[0]
	check := func(label string, got *RunData) {
		t.Helper()
		for i, c := range want.Cookies {
			if !got.Cookies[i].Expires.Equal(c.Expires) {
				t.Errorf("%s: cookie %s expires %v, want %v", label, c.Name, got.Cookies[i].Expires, c.Expires)
			}
		}
		if !got.Flows[0].Time.Equal(want.Flows[0].Time) {
			t.Errorf("%s: flow time %v, want %v", label, got.Flows[0].Time, want.Flows[0].Time)
		}
	}
	fromJSON, fromSnap := loadBoth(t, ds)
	check("json", fromJSON.Runs[0])
	check("snapshot", fromSnap.Runs[0])
	if mustDigest(t, fromJSON) != mustDigest(t, ds) || mustDigest(t, fromSnap) != mustDigest(t, ds) {
		t.Error("reloaded dataset changed the digest")
	}

	cp := sampleCheckpoint()
	cp.Cells = cp.Cells[1:] // the RunRed cell
	cp.Cells[0].Data = want
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint", got.Cells[0].Data)
}
