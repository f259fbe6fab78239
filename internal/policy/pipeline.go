package policy

import (
	"net/url"
	"sort"
	"strings"

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

// Bodies is the collection pipeline's work per distinct HTML document
// of an index (store.Columns.Docs): text extraction, classification, and
// — for a body that is a policy on some row — hashing, language detection
// and annotation each run once per body, however many rows serve it. Only
// what depends on the row stays per row (see Collect). Fill it with
// Classify over every body ID, then fold the rows with Collect.
type Bodies struct {
	cols *store.Columns
	info []bodyInfo
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

// NewBodies returns the pipeline over the HTML documents of cols.
func NewBodies(cols *store.Columns) *Bodies {
	return &Bodies{cols: cols, info: make([]bodyInfo, len(cols.Docs))}
}

// Len returns the number of distinct bodies, the ID range of Classify.
func (b *Bodies) Len() int { return len(b.info) }

// Classify extracts and classifies bodies [lo, hi); each ID writes its
// own slot.
func (b *Bodies) Classify(lo, hi int) {
	for id := lo; id < hi; id++ {
		body := b.cols.Docs[id]
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

// Collect folds the document rows, in row order, into the corpus:
// classify, deduplicate by text hash, and book runs and channels. A text
// the classifier rejects still counts on a row whose URL path hints at a
// policy, if the text names "datenschutz"; such rows count as corrected
// false negatives. A doc takes its URL and host from the first row that
// counts it.
func (b *Bodies) Collect() *Corpus {
	cols := b.cols
	c := &Corpus{
		PerRun:     make(map[store.RunName]int),
		ByLanguage: make(map[Language]int),
	}
	byHash := make(map[string]*Doc)
	for j, row32 := range cols.DocRows {
		row := int(row32)
		in := &b.info[cols.DocBody[j]]
		if !in.policy {
			// Manual-evaluation stand-in: URL hints plus minimal legal
			// vocabulary rescue texts that mix disclosures with
			// unrelated content (discounts, usage instructions).
			if !in.datenschutz || !urlLooksLikePolicy(cols.URL(row)) {
				continue
			}
			c.CorrectedFalseNegatives++
		}
		run := cols.RunName(row)
		c.Occurrences++
		c.PerRun[run]++
		doc := byHash[in.doc.SHA1]
		if doc == nil {
			d := in.doc
			d.URL = cols.URL(row)
			d.Host = cols.Host(row)
			doc = &d
			byHash[d.SHA1] = doc
			c.Unique = append(c.Unique, doc)
		}
		addUnique(&doc.Runs, run)
		if ch := cols.ChannelID[row]; ch >= 0 {
			addUniqueStr(&doc.Channels, cols.Channels.String(ch))
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

// urlLooksLikePolicy reports whether the path of rawURL carries a policy
// hint; the host and the query do not count.
func urlLooksLikePolicy(rawURL string) bool {
	u, err := url.Parse(rawURL)
	if err != nil {
		return false
	}
	low := strings.ToLower(u.Path)
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
