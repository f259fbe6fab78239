package policy

import (
	"context"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

func htmlFlow(rawURL, channel, body string, at time.Time) *proxy.Flow {
	u, _ := url.Parse(rawURL)
	return &proxy.Flow{
		Time: at, Method: http.MethodGet, URL: u, StatusCode: 200,
		Channel:         channel,
		RequestHeaders:  http.Header{},
		ResponseHeaders: http.Header{"Content-Type": []string{"text/html; charset=utf-8"}},
		ResponseBody:    []byte(body),
		ResponseSize:    int64(len(body)),
	}
}

func wrap(body string) string {
	return "<html><head><title>DSE</title></head><body>" + body + "</body></html>"
}

func pipelineDataset() *store.Dataset {
	t0 := time.Date(2023, 9, 14, 10, 0, 0, 0, time.UTC)
	policyA := wrap("<p>" + germanPolicy + "</p>")
	policyB := wrap("<p>" + strings.ReplaceAll(germanPolicy, "Beispiel TV", "Muster TV") + "</p>")
	english := wrap("<p>" + englishPolicy + "</p>")
	misc := wrap("<p>" + miscText + "</p>")
	return &store.Dataset{Runs: []*store.RunData{
		{
			Name: store.RunRed,
			Flows: []*proxy.Flow{
				htmlFlow("http://a.de/datenschutz.html", "A", policyA, t0),
				htmlFlow("http://a.de/datenschutz.html", "A", policyA, t0.Add(time.Minute)), // duplicate occurrence
				htmlFlow("http://b.de/datenschutz.html", "B", policyB, t0),
				htmlFlow("http://c.com/privacy.html", "C", english, t0),
				htmlFlow("http://shop.de/angebot.html", "D", misc, t0),
			},
		},
		{
			Name: store.RunYellow,
			Flows: []*proxy.Flow{
				htmlFlow("http://a.de/datenschutz.html", "A", policyA, t0.AddDate(0, 1, 0)),
			},
		},
	}}
}

// flatten lists the flows of ds in row order with each row's run.
func flatten(ds *store.Dataset) ([]*proxy.Flow, []store.RunName) {
	var flows []*proxy.Flow
	var runs []store.RunName
	for _, run := range ds.Runs {
		for _, f := range run.Flows {
			flows = append(flows, f)
			runs = append(runs, run.Name)
		}
	}
	return flows, runs
}

// columns builds the index of ds with the zero IndexConfig.
func columns(t *testing.T, ds *store.Dataset) *store.Columns {
	t.Helper()
	ix, err := store.BuildIndex(context.Background(), ds, store.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ix.Columns()
}

// collect runs the collection pipeline over the index of ds, classifying
// every body in one pass.
func collect(t *testing.T, ds *store.Dataset) *Corpus {
	t.Helper()
	b := NewBodies(columns(t, ds))
	b.Classify(0, b.Len())
	return b.Collect()
}

// collectReference is the serial reference of the pipeline: it extracts,
// classifies and annotates every HTML response of ds itself, flow by
// flow, with no table of distinct bodies.
func collectReference(ds *store.Dataset) *Corpus {
	c := &Corpus{PerRun: make(map[store.RunName]int), ByLanguage: make(map[Language]int)}
	byHash := make(map[string]*Doc)
	flows, runs := flatten(ds)
	for i, f := range flows {
		if f.StatusCode != 200 || len(f.ResponseBody) == 0 || !strings.HasPrefix(f.ContentType(), "text/html") {
			continue
		}
		text := ExtractText(string(f.ResponseBody))
		if !IsPolicy(text) {
			if !urlLooksLikePolicy(f.URL.Path) || !strings.Contains(strings.ToLower(text), "datenschutz") {
				continue
			}
			c.CorrectedFalseNegatives++
		}
		c.Occurrences++
		c.PerRun[runs[i]]++
		doc := byHash[SHA1Hex(text)]
		if doc == nil {
			doc = &Doc{
				URL: f.URL.String(), Host: f.Host(), HTML: string(f.ResponseBody), Text: text,
				Language: DetectLanguage(text), SHA1: SHA1Hex(text), SimHash: SimHash(text),
				Practices: AnnotatePractices(text), Articles: DetectGDPRArticles(text),
			}
			byHash[doc.SHA1] = doc
			c.Unique = append(c.Unique, doc)
		}
		addUnique(&doc.Runs, runs[i])
		if f.Channel != "" {
			addUniqueStr(&doc.Channels, f.Channel)
		}
	}
	sort.Slice(c.Unique, func(a, b int) bool { return c.Unique[a].SHA1 < c.Unique[b].SHA1 })
	hashes := make([]uint64, len(c.Unique))
	for i, d := range c.Unique {
		c.ByLanguage[d.Language]++
		hashes[i] = d.SimHash
	}
	for _, g := range GroupNearDuplicates(hashes) {
		if len(g) >= 2 {
			c.NearDuplicateGroups = append(c.NearDuplicateGroups, g)
		}
	}
	return c
}

func TestCollectPipeline(t *testing.T) {
	c := collect(t, pipelineDataset())
	if c.Occurrences != 5 { // 3×A + B + english; misc rejected
		t.Errorf("occurrences = %d, want 5", c.Occurrences)
	}
	if c.PerRun[store.RunRed] != 4 || c.PerRun[store.RunYellow] != 1 {
		t.Errorf("per-run = %v", c.PerRun)
	}
	if len(c.Unique) != 3 {
		t.Fatalf("unique = %d, want 3", len(c.Unique))
	}
	if c.ByLanguage[LangGerman] != 2 || c.ByLanguage[LangEnglish] != 1 {
		t.Errorf("languages = %v", c.ByLanguage)
	}
	// The two German channel-name variants form one near-dup group.
	if len(c.NearDuplicateGroups) != 1 || len(c.NearDuplicateGroups[0]) != 2 {
		t.Errorf("near-dup groups = %v", c.NearDuplicateGroups)
	}
	// The A doc is linked to both runs and its channel.
	var docA *Doc
	for _, d := range c.Unique {
		for _, ch := range d.Channels {
			if ch == "A" {
				docA = d
			}
		}
	}
	if docA == nil {
		t.Fatal("policy for channel A missing")
	}
	if len(docA.Runs) != 2 {
		t.Errorf("doc A runs = %v", docA.Runs)
	}
	if !docA.Practices[PracticeFirstPartyCollection] {
		t.Error("doc A practices not annotated")
	}
	if !docA.Articles[Art15Access] {
		t.Error("doc A GDPR articles not annotated")
	}
}

func TestCollectManualCorrection(t *testing.T) {
	// A text that mixes disclosures with shopping content: the classifier
	// rejects it, but the URL hint + legal term rescue it (the paper
	// corrected 18 such false negatives).
	mixed := wrap(`<p>` + miscText + ` Hinweis zum Datenschutz: wir speichern Bestelldaten.</p>`)
	t0 := time.Date(2023, 9, 14, 10, 0, 0, 0, time.UTC)
	ds := &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			htmlFlow("http://shop.de/datenschutz.html", "S", mixed, t0),
		},
	}}}
	c := collect(t, ds)
	if c.CorrectedFalseNegatives != 1 {
		t.Errorf("corrected FNs = %d, want 1", c.CorrectedFalseNegatives)
	}
	if c.Occurrences != 1 {
		t.Errorf("occurrences = %d", c.Occurrences)
	}
}

func TestCollectIgnoresNonHTMLAndErrors(t *testing.T) {
	t0 := time.Date(2023, 9, 14, 10, 0, 0, 0, time.UTC)
	u, _ := url.Parse("http://a.de/datenschutz.html")
	ds := &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			{ // wrong content type
				Time: t0, Method: "GET", URL: u, StatusCode: 200,
				RequestHeaders:  http.Header{},
				ResponseHeaders: http.Header{"Content-Type": []string{"application/json"}},
				ResponseBody:    []byte(`{"x":1}`),
			},
			{ // error status
				Time: t0, Method: "GET", URL: u, StatusCode: 404,
				RequestHeaders:  http.Header{},
				ResponseHeaders: http.Header{"Content-Type": []string{"text/html"}},
				ResponseBody:    []byte("<html>not found</html>"),
			},
		},
	}}}
	c := collect(t, ds)
	if c.Occurrences != 0 || len(c.Unique) != 0 {
		t.Errorf("corpus not empty: %d/%d", c.Occurrences, len(c.Unique))
	}
}

func TestCorpusHelpers(t *testing.T) {
	c := collect(t, pipelineDataset())
	if got := len(c.Texts()); got != len(c.Unique) {
		t.Errorf("Texts() = %d", got)
	}
}

// splitCollect runs the pipeline over the index's documents with the
// body table classified in two passes, cut at body k.
func splitCollect(cols *store.Columns, k int) *Corpus {
	b := NewBodies(cols)
	b.Classify(0, k)
	b.Classify(k, b.Len())
	return b.Collect()
}

// checkSplitCollect checks the pipeline over ds at every split point of
// the body table against the serial reference, and returns the corpus.
func checkSplitCollect(t *testing.T, ds *store.Dataset) *Corpus {
	t.Helper()
	cols := columns(t, ds)
	ref := collectReference(ds)
	for k := 0; k <= len(cols.Docs); k++ {
		if got := splitCollect(cols, k); !reflect.DeepEqual(got, ref) {
			t.Errorf("split at %d: corpus differs from the serial reference", k)
		}
	}
	return ref
}

// TestBodiesSplitInvariance: the policies section classifies the index's
// distinct document bodies in chunks. For every split point the corpus
// must equal the serial reference, including the dedup of the repeated
// policy across the split.
func TestBodiesSplitInvariance(t *testing.T) {
	if c := checkSplitCollect(t, pipelineDataset()); c.Occurrences != 5 {
		t.Fatalf("occurrences = %d, want 5", c.Occurrences)
	}
}

// TestRescueIsPerRow pins what the body table must not memoize: one
// non-policy body is served under a plain path, then under a URL whose
// host and query (but not path) carry policy hints, and then under a
// /datenschutz path. Only the last row is rescued and counted as a
// corrected false negative, and the doc takes its URL and host from that
// row, wherever the split falls.
func TestRescueIsPerRow(t *testing.T) {
	mixed := wrap(`<p>` + miscText + ` Hinweis zum Datenschutz: wir speichern Bestelldaten.</p>`)
	t0 := time.Date(2023, 9, 14, 10, 0, 0, 0, time.UTC)
	ds := &store.Dataset{Runs: []*store.RunData{{
		Name: store.RunRed,
		Flows: []*proxy.Flow{
			htmlFlow("http://shop.de/angebot.html", "S", mixed, t0),
			htmlFlow("http://privacy.shop.de/angebot.html?ref=datenschutz", "S", mixed, t0),
			htmlFlow("http://www.shop.de/datenschutz.html", "S", mixed, t0),
		},
	}}}
	c := checkSplitCollect(t, ds)
	if c.CorrectedFalseNegatives != 1 || c.Occurrences != 1 || len(c.Unique) != 1 {
		t.Fatalf("corrected %d, occurrences %d, unique %d; want 1 each",
			c.CorrectedFalseNegatives, c.Occurrences, len(c.Unique))
	}
	if d := c.Unique[0]; d.URL != "http://www.shop.de/datenschutz.html" || d.Host != "www.shop.de" {
		t.Errorf("doc URL %q, host %q; want the rescued row's", d.URL, d.Host)
	}
}

// TestCheckAdWindow checks the titular contradiction on a hand-built
// index: tracking rows on covered channels outside the declared window.
func TestCheckAdWindow(t *testing.T) {
	day := time.Date(2023, 9, 14, 0, 0, 0, 0, time.UTC)
	at := func(h, m int) time.Time { return day.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute) }
	flow := func(rawURL, channel string, when time.Time) *proxy.Flow {
		u, _ := url.Parse(rawURL)
		return &proxy.Flow{
			Time: when, Method: http.MethodGet, URL: u, StatusCode: 200, Channel: channel,
			RequestHeaders: http.Header{}, ResponseHeaders: http.Header{},
		}
	}
	ds := &store.Dataset{Runs: []*store.RunData{
		{Name: store.RunRed, Flows: []*proxy.Flow{
			flow("http://tracker.de/a", "Kids", at(7, 0)),       // row 0: reported
			flow("http://tracker.de/b", "Kids", at(17, 0)),      // inside the window
			flow("http://tracker.de/c", "Kids", at(5, 59)),      // inside the window
			flow("http://cdn.kids.de/app.js", "Kids", at(7, 0)), // not tracking
			flow("http://tvlist.de/x", "Kids", at(7, 0)),        // comparison list only
			flow("http://tracker.de/d", "", at(7, 0)),           // unattributed
			flow("http://tracker.de/e", "News", at(7, 0)),       // uncovered channel
		}},
		{Name: store.RunYellow, Flows: []*proxy.Flow{
			flow("http://px.tracker.de/f", "Kids2", at(6, 0)), // row 7: the window is half-open
		}},
	}}
	cfg := store.IndexConfig{ClassifyURL: func(u string) store.FlowKind {
		switch {
		case strings.Contains(u, "tracker.de"):
			return store.FlowOnPiHole
		case strings.Contains(u, "tvlist.de"):
			return store.FlowOnPerflyst
		}
		return 0
	}}
	ix, err := store.BuildIndex(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := ix.Columns()
	covered := []string{"Kids", "Kids2"}
	flows, runs := flatten(ds)
	violation := func(row int) WindowViolation {
		f := flows[row]
		return WindowViolation{Run: runs[row], Channel: f.Channel, Host: f.Host(), Time: f.Time}
	}

	got := CheckAdWindow(cols, covered, AdWindow{StartHour: 17, EndHour: 6})
	want := []WindowViolation{
		{Run: store.RunRed, Channel: "Kids", Host: "tracker.de", Time: at(7, 0)},
		{Run: store.RunYellow, Channel: "Kids2", Host: "px.tracker.de", Time: at(6, 0)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("17-6 window: violations = %+v, want %+v", got, want)
	}
	// A daytime window reports the tracking rows outside 9-17, in row order.
	got = CheckAdWindow(cols, covered, AdWindow{StartHour: 9, EndHour: 17})
	want = []WindowViolation{violation(0), violation(1), violation(2), violation(7)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("9-17 window: violations = %+v, want %+v", got, want)
	}
	// Equal hours declare the whole day: nothing lies outside.
	if got := CheckAdWindow(cols, covered, AdWindow{StartHour: 3, EndHour: 3}); len(got) != 0 {
		t.Errorf("degenerate window: violations = %+v, want none", got)
	}
}
