package hbbtvlab

import (
	"slices"
	"sort"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/consent"
	"github.com/hbbtvlab/hbbtvlab/internal/cookies"
	"github.com/hbbtvlab/hbbtvlab/internal/graphx"
	"github.com/hbbtvlab/hbbtvlab/internal/policy"
	"github.com/hbbtvlab/hbbtvlab/internal/stats"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
	"github.com/hbbtvlab/hbbtvlab/internal/synth"
	"github.com/hbbtvlab/hbbtvlab/internal/tracking"
)

// TableIRow is one row of Table I (per-run data overview).
type TableIRow struct {
	Run          store.RunName
	Date         time.Time
	Channels     int
	HTTPReq      int
	HTTPSReq     int
	HTTPSShare   float64
	Cookies      int
	FirstParty   int
	ThirdParty   int
	LocalStorage int
}

// Figure5 captures the long-tail distribution of cookie-using third
// parties (party -> number of channels it set cookies on).
type Figure5 struct {
	PartyChannels map[string]int
	// Top lists parties by descending channel count.
	Top []graphx.NodeDegree
	// PartiesOnMoreThan10 counts third parties used by >10 channels
	// (the paper found only 25).
	PartiesOnMoreThan10 int
	// SingleChannelParties counts third parties seen on exactly one
	// channel (the paper found 38).
	SingleChannelParties int
}

// Figure6 captures the distribution of trackers/tracking requests per
// channel.
type Figure6 struct {
	Requests stats.Desc // tracking requests per channel (paper: mean 1,132, max 59,499)
	Trackers stats.Desc // distinct trackers per channel (paper: mean 7.25, max 33)
	// Top10Share is the share of total tracking requests issued by the 10
	// channels with the most trackers (paper: 6.34%).
	Top10Share float64
	// PerChannel maps channel -> tracking request count, for plotting.
	PerChannel map[string]int
}

// Figure8 captures the ecosystem-graph metrics of Section V-E.
type Figure8 struct {
	Nodes              int
	Edges              int
	Components         int
	AvgPathLength      float64
	MeanNeighborDegree float64
	DegreeMean         float64
	DegreeSD           float64
	TopNodes           []graphx.NodeDegree
	NodesWith10Edges   int
	SingleEdgeDomains  int
	XitiDegree         int
	TVPingDegree       int
}

// CookieFindings aggregates the Section V-C results.
type CookieFindings struct {
	DistinctCookies int
	ClassifiedShare float64 // Cookiepedia-style coverage (paper: 20.5%)
	// Purposes is the per-run purpose distribution (supplementary table);
	// color-button runs classify better and skew towards Targeting.
	Purposes           []PurposeRow
	TargetingShare     float64 // share of classified cookies that are Targeting
	SetByTrackingShare float64 // cookies set by tracking-labeled requests (paper: 92%)
	PotentialIDs       int     // values passing the ID heuristic (paper: 14,236)
	SyncEvents         []cookies.SyncEvent
	SyncParties        int // distinct minting parties involved (paper: 2)
	SyncChannels       int // channels with syncing observed (paper: 20)
}

// PurposeRow re-exports the per-run cookie purpose distribution.
type PurposeRow = cookies.PurposeDistribution

// LeakFindings aggregates Section V-B.
type LeakFindings = tracking.LeakSummary

// ChildrenFindings is the Section V-D5 case study.
type ChildrenFindings struct {
	Channels         []string
	TrackingRequests int
	TargetingCookies int
	// MWU compares children's channels to all others on tracker counts;
	// the paper found no significant difference (p > 0.3).
	MWU stats.MannWhitneyResult
}

// ConsentFindings aggregates Section VI.
type ConsentFindings struct {
	TableIV             []consent.OverlayRow
	TableV              []consent.PrevalenceRow
	ChannelsWithPrivacy int
	Styles              []consent.StyleSummary
	Nudging             consent.NudgeFindings
	Pointers            consent.PointerStats
	// AgreementInitial/AgreementRefined reproduce the two-annotator
	// codebook validation (Cohen's kappa before and after refinement).
	AgreementInitial consent.AgreementResult
	AgreementRefined consent.AgreementResult
	// LocationAds are overlays naming the measurement city in ad copy
	// (Section VI "Other Observations").
	LocationAds []consent.LocationTargetedAd
}

// PolicyFindings aggregates Section VII.
type PolicyFindings struct {
	Corpus *policy.Corpus
	// HbbTVMentions counts unique policies mentioning "HbbTV" (paper: 72%).
	HbbTVMentions int
	// BlueButtonMentions counts policies pointing to blue-button settings
	// (paper: 8).
	BlueButtonMentions int
	// TDDDGMentions counts policies referencing the TTDSG/TDDDG (paper: 1).
	TDDDGMentions int
	// ThirdPartyDeclaring counts policies declaring third-party sharing
	// (paper: 52% of German policies).
	ThirdPartyDeclaring int
	// LegitimateInterest counts policies invoking legitimate interests
	// (paper: 10).
	LegitimateInterest int
	// RightsCoverage counts policies declaring each data-subject right.
	RightsCoverage map[policy.GDPRArticle]int
	// OptOutContradictions counts policies framing targeted ads as opt-out.
	OptOutContradictions int
	// VaguePolicies counts policies whose hedging density crosses the
	// vagueness threshold (the Sachsen Eins case).
	VaguePolicies int
	// AdWindow is the declared children's-group profiling window.
	AdWindow policy.AdWindow
	// AdWindowDeclared reports whether any policy declared such a window.
	AdWindowDeclared bool
	// WindowViolations are tracking requests outside the declared window
	// on channels covered by that policy.
	WindowViolations []policy.WindowViolation
}

// StatFindings holds the study's statistical tests.
type StatFindings struct {
	RunTraffic       stats.KruskalWallisResult // run -> per-channel request volume
	RunCookies       stats.KruskalWallisResult // run -> per-channel cookies set
	ChannelTrackers  stats.KruskalWallisResult // channel -> tracking requests (per run)
	CategoryTrackers stats.KruskalWallisResult // category -> tracking requests
}

// Results bundles every reproduced table, figure, and finding. When
// AnalyzeContext ran with a section selection, only the selected sections'
// fields are populated (FirstParties — an index byproduct — is always set).
type Results struct {
	TableI   []TableIRow
	TableII  []cookies.ThirdPartyUsage
	TableIII []tracking.RunListStats
	Fig5     Figure5
	Fig6     Figure6
	Fig7     []tracking.CategoryStats
	Fig8     Figure8

	FirstParties map[string]string
	Leaks        LeakFindings
	Cookies      CookieFindings
	Children     ChildrenFindings
	Consent      ConsentFindings
	Policies     PolicyFindings
	Stats        StatFindings

	// SmartTVLists reports the smart-TV block-list comparison of V-D:
	// requests blocked by Pi-hole vs Perflyst vs Kamran.
	SmartTVLists map[string]int

	// DerivedRules implements the paper's future-work proposal: filter
	// rules automatically derived from the observed traffic, with the
	// coverage improvement over the Pi-hole base list.
	DerivedRules []tracking.DerivedRule
	Extension    tracking.ExtensionResult
}

// --- Section analyzers -------------------------------------------------
//
// Each analyzer reads the shared dataset index and writes its own,
// disjoint slice of Results; the engine in analyze_engine.go may run any
// subset of them concurrently. None of them re-walks ds.Runs for
// classification — that happened exactly once, in store.BuildIndex.

// analyzeTableI reproduces Table I (per-run data overview).
func analyzeTableI(env *analysisEnv, res *Results) {
	for i, run := range env.ds.Runs {
		ri := &env.ix.Runs[i]
		first, third := cookies.FirstThirdCounts(ri.SetEvents)
		res.TableI = append(res.TableI, TableIRow{
			Run: run.Name, Date: run.Date,
			Channels: len(run.Channels),
			HTTPReq:  ri.PlainRequests, HTTPSReq: ri.HTTPSRequests,
			HTTPSShare:   ri.HTTPSShare(),
			Cookies:      len(run.Cookies),
			FirstParty:   first,
			ThirdParty:   third,
			LocalStorage: len(run.Storage),
		})
	}
}

// analyzeTableII reproduces Table II (cookie-setting third parties).
func analyzeTableII(env *analysisEnv, res *Results) {
	for _, run := range env.ds.Runs {
		res.TableII = append(res.TableII,
			cookies.AnalyzeThirdParty(run.Name, env.ix.SetEvents))
	}
}

// analyzeTableIII reproduces Table III plus the smart-TV list comparison,
// entirely from the index's per-run hit counters.
func analyzeTableIII(env *analysisEnv, res *Results) {
	var piHole, perflyst, kamran int
	for i, run := range env.ds.Runs {
		ri := &env.ix.Runs[i]
		res.TableIII = append(res.TableIII, tracking.RunListStats{
			Run:          run.Name,
			OnPiHole:     ri.OnPiHole,
			OnEasyList:   ri.OnEasyList,
			OnEasyPriv:   ri.OnEasyPrivacy,
			TrackingPxl:  ri.TrackingPixels,
			Fingerprints: ri.FingerprintScripts,
		})
		piHole += ri.OnPiHole
		perflyst += ri.OnPerflyst
		kamran += ri.OnKamran
	}
	res.SmartTVLists = map[string]int{
		"Pi-hole": piHole, "Perflyst": perflyst, "Kamran": kamran,
	}
}

// analyzeFig5 reproduces Fig. 5.
func analyzeFig5(env *analysisEnv, res *Results) {
	counts := cookies.PartyChannelCounts(env.ix.SetEvents)
	f := Figure5{PartyChannels: counts}
	for p, n := range counts {
		f.Top = append(f.Top, graphx.NodeDegree{Node: p, Degree: n})
		if n > 10 {
			f.PartiesOnMoreThan10++
		}
		if n == 1 {
			f.SingleChannelParties++
		}
	}
	sort.Slice(f.Top, func(a, b int) bool {
		if f.Top[a].Degree != f.Top[b].Degree {
			return f.Top[a].Degree > f.Top[b].Degree
		}
		return f.Top[a].Node < f.Top[b].Node
	})
	res.Fig5 = f
}

// analyzeFig6 reproduces Fig. 6.
func analyzeFig6(env *analysisEnv, res *Results) {
	byChannel := env.ix.PerChannelTracking
	f := Figure6{PerChannel: make(map[string]int, len(byChannel))}
	var reqs, trackers []float64
	type chReq struct {
		channel  string
		trackers int
		requests int
	}
	var rows []chReq
	total := 0
	for ch, cs := range byChannel {
		rows = append(rows, chReq{channel: ch, trackers: cs.TrackerCount(), requests: cs.TrackingRequests})
		f.PerChannel[ch] = cs.TrackingRequests
		total += cs.TrackingRequests
	}
	// Deterministic order: rank by trackers, break ties by requests, then
	// name (the top-10 cut must not depend on map iteration order).
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].trackers != rows[b].trackers {
			return rows[a].trackers > rows[b].trackers
		}
		if rows[a].requests != rows[b].requests {
			return rows[a].requests > rows[b].requests
		}
		return rows[a].channel < rows[b].channel
	})
	for _, r := range rows {
		reqs = append(reqs, float64(r.requests))
		trackers = append(trackers, float64(r.trackers))
	}
	f.Requests = stats.Describe(reqs)
	f.Trackers = stats.Describe(trackers)
	top10 := 0
	for i := 0; i < len(rows) && i < 10; i++ {
		top10 += rows[i].requests
	}
	if total > 0 {
		f.Top10Share = float64(top10) / float64(total)
	}
	res.Fig6 = f
}

// analyzeFig7 reproduces Fig. 7.
func analyzeFig7(env *analysisEnv, res *Results) {
	res.Fig7 = tracking.PerCategory(env.ix.PerChannelTracking, env.ds, 10)
}

// analyzeFig8 reproduces Fig. 8 (Section V-E ecosystem graph). The
// channel -> party scan collects the distinct (channel, party) ID pairs
// of columnar row chunks (sets union order-independently), and the string
// sets the graph is built from get one entry per distinct pair. The
// all-pairs BFS behind the average path length fans its sources out over
// the pool with int64 distance sums, so the reported float is
// bit-identical to the serial division.
func analyzeFig8(env *analysisEnv, res *Results) {
	cols := env.ix.Columns()
	n := cols.Rows()
	type pair struct{ ch, party int32 }
	parts := make([]map[pair]struct{}, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		local := make(map[pair]struct{})
		last := pair{-1, -1}
		for i := lo; i < hi; i++ {
			p := pair{cols.ChannelID[i], cols.PartyID[i]}
			if p.ch < 0 || p == last {
				continue
			}
			local[p] = struct{}{}
			last = p
		}
		parts[chunk] = local
	}) {
		return
	}
	distinct := make(map[pair]struct{})
	for _, part := range parts {
		for p := range part {
			distinct[p] = struct{}{}
		}
	}
	merged := make(map[string]map[string]struct{})
	for p := range distinct {
		ch := cols.Channels.String(p.ch)
		set := merged[ch]
		if set == nil {
			set = make(map[string]struct{})
			merged[ch] = set
		}
		set[cols.Parties.String(p.party)] = struct{}{}
	}
	g := graphx.FromChannelParties(merged, env.ix.FirstParty)
	// One BFS per node is the expensive part; a handful of sources per
	// chunk keeps a few hundred nodes divisible across workers.
	nodes := g.Nodes()
	const bfsChunk = 8
	type pathPart struct{ dist, pairs int64 }
	plParts := make([]pathPart, chunksOf(len(nodes), bfsChunk))
	if !env.scanChunksSized(len(nodes), bfsChunk, func(chunk, lo, hi int) {
		var p pathPart
		for _, src := range nodes[lo:hi] {
			d, n := g.PathLengthFrom(src)
			p.dist += d
			p.pairs += n
		}
		plParts[chunk] = p
	}) {
		return
	}
	var totalDist, pairs int64
	for _, p := range plParts {
		totalDist += p.dist
		pairs += p.pairs
	}
	avgPath := 0.0
	if pairs > 0 {
		avgPath = float64(totalDist) / float64(pairs)
	}
	mean, sd := g.DegreeStats()
	f := Figure8{
		Nodes:              g.NodeCount(),
		Edges:              g.EdgeCount(),
		Components:         len(g.Components()),
		AvgPathLength:      avgPath,
		MeanNeighborDegree: g.MeanNeighborDegree(),
		DegreeMean:         mean,
		DegreeSD:           sd,
		TopNodes:           topDomains(g, 3),
		NodesWith10Edges:   g.CountDegreeAtLeast(10),
		XitiDegree:         g.Degree("xiti.com"),
		TVPingDegree:       g.Degree("tvping.com"),
	}
	for node, deg := range g.Degrees() {
		if deg == 1 && g.Kind(node) == graphx.NodeDomain {
			f.SingleEdgeDomains++
		}
	}
	res.Fig8 = f
}

// topDomains ranks domain (non-channel) nodes by degree.
func topDomains(g *graphx.Graph, n int) []graphx.NodeDegree {
	var all []graphx.NodeDegree
	for node, deg := range g.Degrees() {
		if g.Kind(node) == graphx.NodeDomain {
			all = append(all, graphx.NodeDegree{Node: node, Degree: deg})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Degree != all[b].Degree {
			return all[a].Degree > all[b].Degree
		}
		return all[a].Node < all[b].Node
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// analyzeLeaks reproduces the Section V-B leakage search. The search's
// tables — per payload, then per (payload, channel) pair — fill in
// parallel passes over their distinct values; the row scan reads them
// over row chunks and concatenates per-chunk leak lists in chunk order
// (exactly the serial emission order).
func analyzeLeaks(env *analysisEnv, res *Results) {
	n := env.ix.FlowCount()
	s := tracking.NewLeakSearch(env.ix, tracking.LGNeedles)
	if !env.scanDistinct(s.Payloads(), s.MatchPayloads) {
		return
	}
	pairs := make([][]tracking.LeakPair, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		pairs[chunk] = s.RowPairs(lo, hi)
	}) {
		return
	}
	if !env.scanDistinct(s.AddPairs(pairs), s.MatchPairs) {
		return
	}
	parts := make([][]tracking.Leak, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		parts[chunk] = s.Scan(lo, hi)
	}) {
		return
	}
	var leaks []tracking.Leak
	for _, p := range parts {
		leaks = append(leaks, p...)
	}
	res.Leaks = tracking.Summarize(leaks, env.ix.FirstParty)
}

// analyzeCookies reproduces Section V-C.
func analyzeCookies(env *analysisEnv, res *Results) {
	events := env.ix.SetEvents
	lo, hi := env.ix.Window.Start, env.ix.Window.End
	f := CookieFindings{
		DistinctCookies: cookies.DistinctCookies(events),
		PotentialIDs:    cookies.PotentialIDs(events, lo, hi),
	}
	classified, targeting := 0, 0
	distinct := make(map[[2]string]struct{})
	for _, e := range events {
		key := [2]string{e.Party, e.Name}
		if _, dup := distinct[key]; dup {
			continue
		}
		distinct[key] = struct{}{}
		if purpose, known := cookies.ClassifyPurpose(e.Name); known {
			classified++
			if purpose == cookies.PurposeTargeting {
				targeting++
			}
		}
	}
	if len(distinct) > 0 {
		f.ClassifiedShare = float64(classified) / float64(len(distinct))
	}
	if classified > 0 {
		f.TargetingShare = float64(targeting) / float64(classified)
	}
	// Share of Set-Cookie responses arriving on tracking-labeled requests
	// (counted by the index across all flows, attributed or not).
	setTotal, setTracking := 0, 0
	for i := range env.ix.Runs {
		setTotal += env.ix.Runs[i].SetCookieFlows
		setTracking += env.ix.Runs[i].SetCookieTrackingFlows
	}
	if setTotal > 0 {
		f.SetByTrackingShare = float64(setTracking) / float64(setTotal)
	}
	for _, run := range env.ds.Runs {
		f.Purposes = append(f.Purposes, cookies.AnalyzePurposes(run.Name, events))
	}
	// Cookie syncing: each distinct payload is tokenized once; the row
	// scan then runs over row chunks with chunk-local dedup, and
	// MergeSyncEvents re-applies the global first-occurrence dedup in row
	// order.
	ids := cookies.MintedIDs(events, lo, hi)
	carried := make([][]string, len(env.ix.Columns().Payloads))
	if !env.scanDistinct(len(carried), func(plo, phi int) {
		cookies.CarriedIDs(ids, env.ix, carried, plo, phi)
	}) {
		return
	}
	n := env.ix.FlowCount()
	parts := make([][]cookies.SyncEvent, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, clo, chi int) {
		parts[chunk] = cookies.ScanSyncing(ids, carried, env.ix, clo, chi)
	}) {
		return
	}
	f.SyncEvents = cookies.MergeSyncEvents(parts)
	parties := make(map[string]struct{})
	channels := make(map[string]struct{})
	for _, s := range f.SyncEvents {
		parties[s.FromParty] = struct{}{}
		parties[s.ToParty] = struct{}{}
		if s.Channel != "" {
			channels[s.Channel] = struct{}{}
		}
	}
	f.SyncParties = len(parties)
	f.SyncChannels = len(channels)
	res.Cookies = f
}

// analyzeChildren reproduces the Section V-D5 case study.
func analyzeChildren(env *analysisEnv, res *Results) {
	byChannel := env.ix.PerChannelTracking
	f := ChildrenFindings{}
	isChild := make(map[string]bool)
	for _, name := range env.ix.Channels {
		if info := env.ds.ChannelInfo(name); info != nil && info.TargetsChildren() {
			isChild[name] = true
			f.Channels = append(f.Channels, name)
		}
	}
	sort.Strings(f.Channels)
	for name := range isChild {
		if cs := byChannel[name]; cs != nil {
			f.TrackingRequests += cs.TrackingRequests
		}
	}
	seen := make(map[[3]string]struct{})
	for _, e := range env.ix.SetEvents {
		if !isChild[e.Channel] || !e.ThirdParty {
			continue
		}
		if p, known := cookies.ClassifyPurpose(e.Name); known && p == cookies.PurposeTargeting {
			key := [3]string{e.Channel, e.Party, e.Name}
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				f.TargetingCookies++
			}
		}
	}
	// MWU on per-channel tracker counts: children vs all others.
	var child, other []float64
	for _, name := range env.ix.Channels {
		n := 0.0
		if cs := byChannel[name]; cs != nil {
			n = float64(cs.TrackerCount())
		}
		if isChild[name] {
			child = append(child, n)
		} else {
			other = append(other, n)
		}
	}
	if mwu, err := stats.MannWhitney(child, other); err == nil {
		f.MWU = mwu
	}
	res.Children = f
}

// analyzeConsent reproduces Section VI.
func analyzeConsent(env *analysisEnv, res *Results) {
	ds := env.ds
	f := ConsentFindings{
		ChannelsWithPrivacy: consent.ChannelsWithPrivacyInfo(ds),
		Styles:              consent.NoticeInventory(ds),
		Pointers:            consent.Pointers(ds),
	}
	for _, run := range ds.Runs {
		f.TableIV = append(f.TableIV, consent.OverlayDistribution(run))
		f.TableV = append(f.TableV, consent.PrivacyPrevalence(run))
	}
	f.Nudging = consent.AnalyzeNudging(f.Styles)
	// Codebook validation on the first run's screenshot subset.
	if len(ds.Runs) > 0 && len(ds.Runs[0].Screenshots) > 0 {
		if ini, ref, err := consent.AgreementStudy(ds.Runs[0], 1); err == nil {
			f.AgreementInitial, f.AgreementRefined = ini, ref
		}
	}
	f.LocationAds = consent.FindLocationTargetedAds(ds, synth.MeasurementCity)
	res.Consent = f
}

// analyzePolicies reproduces Section VII. Corpus collection finds the HTML
// responses over row chunks, then extracts, classifies and annotates each
// distinct body once, one body per parallel task; the fold over the HTML
// rows keeps what depends on the row (the URL-based rescue, runs and
// channels, a doc's first URL and host).
func analyzePolicies(env *analysisEnv, res *Results) {
	cols := env.ix.Columns()
	n := cols.Rows()
	parts := make([][]int32, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		parts[chunk] = policy.ScanFlows(cols.Flows, lo, hi)
	}) {
		return
	}
	bodies := policy.NewBodies(cols.Flows, slices.Concat(parts...))
	if !env.scanChunksSized(bodies.Len(), 1, func(_, lo, hi int) { bodies.Classify(lo, hi) }) {
		return
	}
	corpus := bodies.Collect(cols.Flows, cols.RunName)
	f := PolicyFindings{
		Corpus:         corpus,
		RightsCoverage: policy.RightsCoverage(corpus.Texts()),
	}
	var windowDocs []*policy.Doc
	for _, d := range corpus.Unique {
		if policy.MentionsHbbTV(d.Text) {
			f.HbbTVMentions++
		}
		if policy.MentionsBlueButton(d.Text) {
			f.BlueButtonMentions++
		}
		if policy.MentionsTDDDG(d.Text) {
			f.TDDDGMentions++
		}
		if d.Practices[policy.PracticeThirdPartySharing] {
			f.ThirdPartyDeclaring++
		}
		if d.Practices[policy.PracticeBasisLegitInt] {
			f.LegitimateInterest++
		}
		if len(policy.CheckStatic(d.Practices)) > 0 {
			f.OptOutContradictions++
		}
		if policy.IsVague(d.Text) {
			f.VaguePolicies++
		}
		if w, ok := policy.ParseAdWindow(d.Text); ok {
			f.AdWindow = w
			f.AdWindowDeclared = true
			windowDocs = append(windowDocs, d)
		}
	}
	// The titular check: tracking outside the declared window on channels
	// covered by the window-declaring policy.
	var covered []string
	for _, d := range windowDocs {
		covered = append(covered, d.Channels...)
	}
	if f.AdWindowDeclared && len(covered) > 0 {
		f.WindowViolations = policy.CheckAdWindow(cols, covered, f.AdWindow)
	}
	res.Policies = f
}

// analyzeStats reproduces the study's statistical tests. Every map-keyed
// grouping sorts its keys first: Kruskal-Wallis is mathematically
// order-invariant, but floating-point summation is not, so unsorted map
// iteration would make the reported H/p values drift across processes.
func analyzeStats(env *analysisEnv, res *Results) {
	f := StatFindings{}
	// Run -> per-channel request volume.
	var trafficGroups [][]float64
	var cookieGroups [][]float64
	for i, run := range env.ds.Runs {
		byChan := env.ix.Runs[i].RequestsByChannel
		var g []float64
		for _, ch := range sortedKeys(byChan) {
			g = append(g, float64(byChan[ch]))
		}
		trafficGroups = append(trafficGroups, g)
		perChanCookies := make(map[string]int)
		for _, e := range env.ix.Runs[i].SetEvents {
			perChanCookies[e.Channel]++
		}
		var cg []float64
		for _, ch := range run.Channels {
			cg = append(cg, float64(perChanCookies[ch.Name]))
		}
		cookieGroups = append(cookieGroups, cg)
	}
	if r, err := stats.KruskalWallis(trafficGroups...); err == nil {
		f.RunTraffic = r
	}
	if r, err := stats.KruskalWallis(cookieGroups...); err == nil {
		f.RunCookies = r
	}
	// Channel -> tracking requests, one observation per run.
	perChannelPerRun := make(map[string][]float64)
	for i, run := range env.ds.Runs {
		counts := env.ix.Runs[i].TrackingByChannel
		for _, ch := range run.Channels {
			perChannelPerRun[ch.Name] = append(perChannelPerRun[ch.Name], float64(counts[ch.Name]))
		}
	}
	var chanGroups [][]float64
	for _, ch := range sortedKeys(perChannelPerRun) {
		chanGroups = append(chanGroups, perChannelPerRun[ch])
	}
	if r, err := stats.KruskalWallis(chanGroups...); err == nil {
		f.ChannelTrackers = r
	}
	// Category -> per-channel tracking requests.
	catGroups := make(map[string][]float64)
	for _, name := range env.ix.Channels {
		info := env.ds.ChannelInfo(name)
		cat := "Other"
		if info != nil && info.PrimaryCategory() != "" {
			cat = string(info.PrimaryCategory())
		}
		n := 0.0
		if cs := env.ix.PerChannelTracking[name]; cs != nil {
			n = float64(cs.TrackingRequests)
		}
		catGroups[cat] = append(catGroups[cat], n)
	}
	var cgs [][]float64
	for _, cat := range sortedKeys(catGroups) {
		cgs = append(cgs, catGroups[cat])
	}
	if r, err := stats.KruskalWallis(cgs...); err == nil {
		f.CategoryTrackers = r
	}
	res.Stats = f
}

// analyzeExtension reproduces the future-work extension: filter rules
// derived from the observed traffic and the coverage gain they add over
// the Pi-hole base list. Evidence gathering and coverage evaluation fold
// row chunks into order-independent accumulators (counts, kind bits), so
// the chunked merges equal the serial scans; the derived rules are matched
// once per distinct URL in between, so a row reads one bit.
func analyzeExtension(env *analysisEnv, res *Results) {
	n := env.ix.FlowCount()
	fp := tracking.FirstPartySet(env.ix.FirstParty)
	evParts := make([]map[string]tracking.RuleEvidence, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		evParts[chunk] = tracking.ScanRuleEvidence(env.ix, fp, lo, hi)
	}) {
		return
	}
	rules := tracking.RulesFromEvidence(tracking.MergeRuleEvidence(evParts))
	extended, err := tracking.ExtendedList(rules)
	if err != nil {
		res.DerivedRules = rules
		return
	}
	blocked := make([]bool, env.ix.Columns().URLs.Len())
	if !env.scanDistinct(len(blocked), func(lo, hi int) {
		tracking.MatchExtendedURLs(env.ix, extended, blocked, lo, hi)
	}) {
		return
	}
	extParts := make([]tracking.ExtensionResult, sectionChunks(n))
	if !env.scanChunks(n, func(chunk, lo, hi int) {
		extParts[chunk] = tracking.EvaluateExtensionRange(env.ix, blocked, lo, hi)
	}) {
		return
	}
	var ext tracking.ExtensionResult
	for _, p := range extParts {
		ext.Add(p)
	}
	res.DerivedRules = rules
	res.Extension = ext
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
