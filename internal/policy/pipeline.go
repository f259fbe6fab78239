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

// Partial is one row range's share of the collection pipeline: classified
// policy occurrences, the chunk's deduplicated docs in first-occurrence
// order, and the occurrence counters.
type Partial struct {
	Occurrences int
	PerRun      map[store.RunName]int
	Corrected   int
	// Docs holds the chunk-locally deduplicated policies, in order of
	// their first occurrence within the chunk; each doc's Runs/Channels
	// lists are likewise in chunk-local flow order.
	Docs   []*Doc
	byHash map[string]*Doc
}

// ScanFlows runs the collection pipeline over flows [lo, hi) (dataset row
// order; runName resolves a row's run): find HTML responses, extract
// text, classify, deduplicate, detect language, annotate. Chunk-local
// dedup keeps the first occurrence of each distinct policy text;
// MergePartials over in-order chunks reconciles duplicates across chunks
// exactly as a serial scan would.
func ScanFlows(flows []*proxy.Flow, runName func(int) store.RunName, lo, hi int) *Partial {
	p := &Partial{
		PerRun: make(map[store.RunName]int),
		byHash: make(map[string]*Doc),
	}
	for i := lo; i < hi; i++ {
		f := flows[i]
		if f.StatusCode != 200 || len(f.ResponseBody) == 0 {
			continue
		}
		if !strings.HasPrefix(f.ContentType(), "text/html") {
			continue
		}
		text := ExtractText(string(f.ResponseBody))
		isPolicy := IsPolicy(text)
		if !isPolicy {
			// Manual-evaluation stand-in: URL hints plus minimal legal
			// vocabulary rescue texts that mix disclosures with
			// unrelated content (discounts, usage instructions).
			if urlLooksLikePolicy(f.URL.Path) && strings.Contains(strings.ToLower(text), "datenschutz") {
				isPolicy = true
				p.Corrected++
			}
		}
		if !isPolicy {
			continue
		}
		run := runName(i)
		p.Occurrences++
		p.PerRun[run]++
		hash := SHA1Hex(text)
		doc := p.byHash[hash]
		if doc == nil {
			doc = &Doc{
				URL:      f.URL.String(),
				Host:     f.Host(),
				HTML:     string(f.ResponseBody),
				Text:     text,
				Language: DetectLanguage(text),
				SHA1:     hash,
				SimHash:  SimHash(text),
			}
			doc.Practices = AnnotatePractices(text)
			doc.Articles = DetectGDPRArticles(text)
			p.byHash[hash] = doc
			p.Docs = append(p.Docs, doc)
		}
		addUnique(&doc.Runs, run)
		if f.Channel != "" {
			addUniqueStr(&doc.Channels, f.Channel)
		}
	}
	return p
}

// MergePartials folds per-chunk scans — taken in row order — into the
// corpus. A doc seen in several chunks keeps the identity fields
// (URL/Host/HTML and the text-derived annotations, which are pure
// functions of the text) of its first chunk and absorbs later chunks'
// Runs/Channels in order, so the merged corpus is exactly what a serial
// scan of the concatenated ranges produces.
func MergePartials(parts []*Partial) *Corpus {
	c := &Corpus{
		PerRun:     make(map[store.RunName]int),
		ByLanguage: make(map[Language]int),
	}
	byHash := make(map[string]*Doc)
	for _, p := range parts {
		c.Occurrences += p.Occurrences
		c.CorrectedFalseNegatives += p.Corrected
		for run, n := range p.PerRun {
			c.PerRun[run] += n
		}
		for _, doc := range p.Docs {
			first := byHash[doc.SHA1]
			if first == nil {
				byHash[doc.SHA1] = doc
				continue
			}
			for _, r := range doc.Runs {
				addUnique(&first.Runs, r)
			}
			for _, ch := range doc.Channels {
				addUniqueStr(&first.Channels, ch)
			}
		}
	}
	for _, doc := range byHash {
		c.Unique = append(c.Unique, doc)
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
