package policy

import (
	"sort"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// Doc is one privacy policy found in the recorded traffic.
type Doc struct {
	URL      string
	Host     string
	Channels []string
	Runs     []store.RunName

	HTML string
	Text string

	Language Language
	SHA1     string
	SimHash  uint64

	Practices map[Practice]bool
	Articles  map[GDPRArticle]bool
}

// Corpus is the result of the collection pipeline.
type Corpus struct {
	// Occurrences counts every classified policy observation (the study
	// collected 2,656 before deduplication).
	Occurrences int
	// PerRun counts occurrences per measurement run.
	PerRun map[store.RunName]int
	// ByLanguage counts unique policies per language.
	ByLanguage map[Language]int
	// Unique holds the SHA-1-deduplicated policies.
	Unique []*Doc
	// NearDuplicateGroups are SimHash groups over Unique with >= 2 members
	// (11 groups of nearly identical German policies in the study).
	NearDuplicateGroups [][]int
	// CorrectedFalseNegatives counts texts the classifier rejected but the
	// manual-evaluation stand-in (URL hints + legal terms) rescued; the
	// study corrected 18.
	CorrectedFalseNegatives int
}

// policyURLHints mark URLs that conventionally host policies; used by the
// manual-correction stand-in.
var policyURLHints = []string{"datenschutz", "privacy", "dsgvo", "gdpr"}

// ScanFlows returns the rows in [lo, hi) (dataset row order) whose
// responses the collection pipeline reads: status-200 HTML responses with
// a body. Scans of consecutive ranges, concatenated in range order, equal
// the scan of their union.
func ScanFlows(flows []*proxy.Flow, lo, hi int) []int32 {
	var rows []int32
	for i := lo; i < hi; i++ {
		f := flows[i]
		if f.StatusCode != 200 || len(f.ResponseBody) == 0 {
			continue
		}
		if !strings.HasPrefix(f.ContentType(), "text/html") {
			continue
		}
		rows = append(rows, int32(i))
	}
	return rows
}

// Bodies is the collection pipeline's work per distinct response body:
// text extraction, classification, and — for a body that is a policy on
// some row — hashing, language detection and annotation each run once per
// body, however many rows serve it. Only what depends on the row stays per
// row (see Collect). Fill it with Classify over every body ID, then fold
// the rows with Collect.
type Bodies struct {
	rows   []int32  // the HTML rows, in row order
	bodyOf []int32  // body ID of each entry of rows
	bodies []string // distinct bodies, in first-occurrence order
	info   []bodyInfo
}

// bodyInfo is Classify's result for one body.
type bodyInfo struct {
	policy      bool // the classifier accepts the text
	datenschutz bool // the text names "datenschutz", in any case
	// doc holds the body's HTML and the text-derived Doc fields; it is
	// set when either flag is, that is when some row can count the body
	// as a policy.
	doc Doc
}

// NewBodies interns the response bodies of rows (ScanFlows output, in row
// order) into a table of distinct bodies.
func NewBodies(flows []*proxy.Flow, rows []int32) *Bodies {
	ids := store.NewStrings(0)
	b := &Bodies{rows: rows, bodyOf: make([]int32, len(rows))}
	for j, row := range rows {
		b.bodyOf[j] = ids.InternBytes(flows[row].ResponseBody)
	}
	b.bodies = ids.All()
	b.info = make([]bodyInfo, len(b.bodies))
	return b
}

// Len returns the number of distinct bodies, the ID range of Classify.
func (b *Bodies) Len() int { return len(b.bodies) }

// Classify extracts and classifies bodies [lo, hi); each ID writes its
// own slot.
func (b *Bodies) Classify(lo, hi int) {
	for id := lo; id < hi; id++ {
		body := b.bodies[id]
		text := ExtractText(body)
		in := bodyInfo{
			policy:      IsPolicy(text),
			datenschutz: strings.Contains(strings.ToLower(text), "datenschutz"),
		}
		if in.policy || in.datenschutz {
			in.doc = Doc{
				HTML:      body,
				Text:      text,
				Language:  DetectLanguage(text),
				SHA1:      SHA1Hex(text),
				SimHash:   SimHash(text),
				Practices: AnnotatePractices(text),
				Articles:  DetectGDPRArticles(text),
			}
		}
		b.info[id] = in
	}
}

// Collect folds the rows, in row order (runName resolves a row's run),
// into the corpus: classify, deduplicate by text hash, and book runs and
// channels. A text the classifier rejects still counts on a row whose URL
// path hints at a policy, if the text names "datenschutz"; such rows count
// as corrected false negatives. A doc takes its URL and host from the
// first row that counts it.
func (b *Bodies) Collect(flows []*proxy.Flow, runName func(int) store.RunName) *Corpus {
	c := &Corpus{
		PerRun:     make(map[store.RunName]int),
		ByLanguage: make(map[Language]int),
	}
	byHash := make(map[string]*Doc)
	for j, row := range b.rows {
		f := flows[row]
		in := &b.info[b.bodyOf[j]]
		if !in.policy {
			// Manual-evaluation stand-in: URL hints plus minimal legal
			// vocabulary rescue texts that mix disclosures with
			// unrelated content (discounts, usage instructions).
			if !in.datenschutz || !urlLooksLikePolicy(f.URL.Path) {
				continue
			}
			c.CorrectedFalseNegatives++
		}
		run := runName(int(row))
		c.Occurrences++
		c.PerRun[run]++
		doc := byHash[in.doc.SHA1]
		if doc == nil {
			d := in.doc
			d.URL = f.URL.String()
			d.Host = f.Host()
			doc = &d
			byHash[d.SHA1] = doc
			c.Unique = append(c.Unique, doc)
		}
		addUnique(&doc.Runs, run)
		if f.Channel != "" {
			addUniqueStr(&doc.Channels, f.Channel)
		}
	}
	sort.Slice(c.Unique, func(a, b int) bool { return c.Unique[a].SHA1 < c.Unique[b].SHA1 })
	for _, doc := range c.Unique {
		c.ByLanguage[doc.Language]++
	}
	hashes := make([]uint64, len(c.Unique))
	for i, d := range c.Unique {
		hashes[i] = d.SimHash
	}
	for _, g := range GroupNearDuplicates(hashes) {
		if len(g) >= 2 {
			c.NearDuplicateGroups = append(c.NearDuplicateGroups, g)
		}
	}
	return c
}

func urlLooksLikePolicy(path string) bool {
	low := strings.ToLower(path)
	for _, h := range policyURLHints {
		if strings.Contains(low, h) {
			return true
		}
	}
	return false
}

func addUnique(runs *[]store.RunName, r store.RunName) {
	for _, x := range *runs {
		if x == r {
			return
		}
	}
	*runs = append(*runs, r)
}

func addUniqueStr(xs *[]string, s string) {
	for _, x := range *xs {
		if x == s {
			return
		}
	}
	*xs = append(*xs, s)
}

// Texts returns the unique policy texts (for coverage statistics).
func (c *Corpus) Texts() []string {
	out := make([]string, len(c.Unique))
	for i, d := range c.Unique {
		out[i] = d.Text
	}
	return out
}
