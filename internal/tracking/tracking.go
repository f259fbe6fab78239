// Package tracking implements the user-tracking analyses of Section V:
// the flow classification that store.BuildIndex applies once per dataset
// (filter-list hits, the tracking-pixel heuristic, fingerprint-script
// detection, and the first-party filter-list correction for trackers
// encoded directly into the HbbTV signal), personal-data leakage search,
// the per-category tracking statistics behind Figure 7, and the derived
// filter rules of the paper's future-work proposal.
package tracking

import (
	"sort"
	"strings"

	"github.com/hbbtvlab/hbbtvlab/internal/filterlist"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/store"
)

// PixelMaxBytes is the tracking-pixel size threshold: responses smaller
// than this (roughly an empty image) count as pixels.
const PixelMaxBytes = 45

// pixelSized is the part of the pixel heuristic that needs no header.
func pixelSized(f *proxy.Flow) bool {
	return f.StatusCode == 200 && f.ResponseSize < PixelMaxBytes
}

func isPixelType(ct string) bool { return strings.HasPrefix(ct, "image/") }

// fingerprintMarkers are the API/library signatures of Section V-D2.
var fingerprintMarkers = []string{
	"toDataURL",          // canvas readback
	"getContext('webgl'", // WebGL probing
	"getContext(\"webgl", //
	"WebGLRenderingContext",
	"AudioContext",
	"Fingerprint2", // FingerprintJS library
	"fingerprintjs",
}

// isFingerprintBody reports whether a flow's body, of media type ct, is
// JavaScript that references a fingerprinting API or library.
func isFingerprintBody(f *proxy.Flow, ct string) bool {
	if !strings.Contains(ct, "javascript") && ct != "application/x-javascript" {
		return false
	}
	body := string(f.ResponseBody)
	for _, m := range fingerprintMarkers {
		if strings.Contains(body, m) {
			return true
		}
	}
	return false
}

// flowKind is the response-dependent part of a flow's classification:
// the pixel and fingerprint heuristics. The media type is read once, and
// only when a heuristic still depends on it.
//
// FlowPixel is the Section V-D1 heuristic: the response is an image,
// smaller than 45 bytes, with status 200. FlowFingerprint is Section
// V-D2's: the flow delivered JavaScript whose body references
// fingerprinting APIs or libraries. The framework cannot observe
// execution, so — as in the paper — the fingerprint count is a lower
// bound.
func flowKind(f *proxy.Flow) store.FlowKind {
	pixel, body := pixelSized(f), len(f.ResponseBody) > 0
	if !pixel && !body {
		return 0
	}
	ct := f.ContentType()
	var k store.FlowKind
	if pixel && isPixelType(ct) {
		k |= store.FlowPixel
	}
	if body && isFingerprintBody(f, ct) {
		k |= store.FlowFingerprint
	}
	return k
}

// Classifier bundles the filter lists used to label tracking requests.
type Classifier struct {
	EasyList    *filterlist.List
	EasyPrivacy *filterlist.List
	PiHole      *filterlist.List
}

// NewClassifier returns a classifier over the embedded snapshot lists.
func NewClassifier() *Classifier {
	return &Classifier{
		EasyList:    filterlist.EasyList(),
		EasyPrivacy: filterlist.EasyPrivacy(),
		PiHole:      filterlist.PiHole(),
	}
}

// IndexConfig wires this classifier into store.BuildIndex, split along the
// index's memoization boundary: ClassifyURL carries every filter-list
// match (the three Web lists plus the two smart-TV comparison lists) —
// a pure function of the URL string, which the columnar build evaluates
// once per distinct URL — while ClassifyFlow carries the response-
// dependent pixel and fingerprint heuristics, evaluated once per flow.
// KnownTrackerMask encodes the Section V-A first-party correction
// (candidates flagged by EasyList are excluded). Both closures are safe
// for concurrent use — the lists are read-only after construction.
func (c *Classifier) IndexConfig() store.IndexConfig {
	perflyst := filterlist.PerflystSmartTV()
	kamran := filterlist.KamranSmartTV()
	return store.IndexConfig{
		ClassifyURL: func(u string) store.FlowKind {
			var k store.FlowKind
			if c.EasyList != nil && c.EasyList.MatchURL(u) {
				k |= store.FlowOnEasyList
			}
			if c.EasyPrivacy != nil && c.EasyPrivacy.MatchURL(u) {
				k |= store.FlowOnEasyPrivacy
			}
			if c.PiHole != nil && c.PiHole.MatchURL(u) {
				k |= store.FlowOnPiHole
			}
			if perflyst.MatchURL(u) {
				k |= store.FlowOnPerflyst
			}
			if kamran.MatchURL(u) {
				k |= store.FlowOnKamran
			}
			return k
		},
		ClassifyFlow:     flowKind,
		KnownTrackerMask: store.FlowOnEasyList,
	}
}

// RunListStats is one row of Table III: filter-list hits and heuristic
// detections for one measurement run.
type RunListStats struct {
	Run          store.RunName
	OnPiHole     int
	OnEasyList   int
	OnEasyPriv   int
	TrackingPxl  int
	Fingerprints int
}

// ChannelStats aggregates tracking per channel — the basis of Fig. 6 and
// the channel-level analysis. It is an alias of store.ChannelTracking:
// the single-pass dataset index computes it as Index.PerChannelTracking.
type ChannelStats = store.ChannelTracking

// CategoryStats aggregates tracking per channel category (Fig. 7).
type CategoryStats struct {
	Category         string
	Channels         int
	TrackingRequests int
	PerChannel       []float64 // tracking requests per channel, for tests/stats
}

// sortedMapKeys returns a map's keys in ascending order.
func sortedMapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PerCategory groups per-channel tracking statistics (the index's
// PerChannelTracking) by the channels' primary category.
// Channels in categories with fewer than minChannels channels are folded
// into "Other/Unknown", as in Fig. 7.
func PerCategory(byChannel map[string]*ChannelStats, ds *store.Dataset, minChannels int) []CategoryStats {
	catChannels := make(map[string][]string)
	for _, name := range ds.ChannelNames() {
		info := ds.ChannelInfo(name)
		cat := "Other/Unknown"
		if info != nil && info.PrimaryCategory() != "" {
			cat = string(info.PrimaryCategory())
		}
		catChannels[cat] = append(catChannels[cat], name)
	}
	// Fold small categories. Both fold and output iterate sorted keys:
	// the folded channel order (and with it the PerChannel slices) must
	// not depend on map iteration order.
	folded := make(map[string][]string)
	for _, cat := range sortedMapKeys(catChannels) {
		chans := catChannels[cat]
		if cat != "Other/Unknown" && len(chans) < minChannels {
			folded["Other/Unknown"] = append(folded["Other/Unknown"], chans...)
			continue
		}
		folded[cat] = append(folded[cat], chans...)
	}
	var out []CategoryStats
	for _, cat := range sortedMapKeys(folded) {
		chans := folded[cat]
		cs := CategoryStats{Category: cat, Channels: len(chans)}
		for _, ch := range chans {
			n := 0
			if st := byChannel[ch]; st != nil {
				n = st.TrackingRequests
			}
			cs.TrackingRequests += n
			cs.PerChannel = append(cs.PerChannel, float64(n))
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].TrackingRequests != out[b].TrackingRequests {
			return out[a].TrackingRequests > out[b].TrackingRequests
		}
		return out[a].Category < out[b].Category
	})
	return out
}
