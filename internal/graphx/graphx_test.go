package graphx

import (
	"math"
	"testing"
)

func buildPath(nodes ...string) *Graph {
	g := New()
	for i := 0; i+1 < len(nodes); i++ {
		g.AddEdge(nodes[i], nodes[i+1])
	}
	return g
}

func TestBasicCounts(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "b") // duplicate ignored
	g.AddEdge("c", "c") // self loop ignored
	if g.NodeCount() != 3 || g.EdgeCount() != 2 {
		t.Errorf("counts = %d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	}
	if g.Degree("b") != 2 || g.Degree("a") != 1 {
		t.Errorf("degrees = %v", g.Degrees())
	}
}

func TestComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("c", "d")
	g.AddEdge("d", "e")
	g.AddNode("lonely", NodeDomain)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0]) != 3 { // largest first
		t.Errorf("largest component = %v", comps[0])
	}
}

func TestPathLengthFrom(t *testing.T) {
	// Path a-b-c: from a 1+2, from b 1+1, from c 1+2, each over 2 pairs,
	// so the all-pairs mean is 8/6.
	g := buildPath("a", "b", "c")
	want := map[string][2]int64{"a": {3, 2}, "b": {2, 2}, "c": {3, 2}}
	for _, src := range g.Nodes() {
		d, p := g.PathLengthFrom(src)
		if got := [2]int64{d, p}; got != want[src] {
			t.Errorf("PathLengthFrom(%s) = %v, want %v", src, got, want[src])
		}
	}
	g.AddNode("lonely", NodeDomain)
	if d, p := g.PathLengthFrom("lonely"); d != 0 || p != 0 {
		t.Errorf("isolated node reaches %d pairs at distance %d", p, d)
	}
}

func TestMeanNeighborDegreeHub(t *testing.T) {
	// Star with hub and 10 spokes: each spoke's neighbor degree is 10,
	// the hub's is 1 → mean = (10*10 + 1)/11.
	g := New()
	for i := 0; i < 10; i++ {
		g.AddEdge("hub", string(rune('a'+i)))
	}
	want := (10.0*10 + 1) / 11
	if got := g.MeanNeighborDegree(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MND = %v, want %v", got, want)
	}
}

func TestDegreeThresholds(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		g.AddEdge("hub", string(rune('a'+i)))
	}
	g.AddEdge("a", "b")
	if got := g.CountDegreeAtLeast(2); got != 3 { // hub, a, b
		t.Errorf("CountDegreeAtLeast(2) = %d", got)
	}
	if got := g.CountDegreeAtLeast(6); got != 0 {
		t.Errorf("CountDegreeAtLeast(6) = %d", got)
	}
}

func TestDegreeStats(t *testing.T) {
	g := buildPath("a", "b", "c") // degrees 1,2,1
	mean, sd := g.DegreeStats()
	if math.Abs(mean-4.0/3) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
	if sd <= 0 {
		t.Errorf("sd = %v", sd)
	}
	if m, s := New().DegreeStats(); m != 0 || s != 0 {
		t.Error("empty graph stats should be 0")
	}
}

// TestFromDataset builds the ecosystem graph from the channel -> party
// sets the Fig. 8 scan collects over the index rows.
func TestFromDataset(t *testing.T) {
	set := func(parties ...string) map[string]struct{} {
		out := make(map[string]struct{}, len(parties))
		for _, p := range parties {
			out[p] = struct{}{}
		}
		return out
	}
	parties := map[string]map[string]struct{}{
		"Das Erste":    set("ard.de", "tvping.com"),
		"Tagesschau24": set("ard.de", "xiti.com"), // same FP, different channel
		"Unknown":      set("unattributed.de"),    // no identified first party
	}
	fp := map[string]string{"Das Erste": "ard.de", "Tagesschau24": "ard.de"}
	g := FromChannelParties(parties, fp)

	// Nodes: 2 channels + ard.de + tvping.com + xiti.com = 5.
	if g.NodeCount() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NodeCount())
	}
	// Edges: ch1-ard, ch2-ard, ard-tvping, ard-xiti = 4.
	if g.EdgeCount() != 4 {
		t.Errorf("edges = %d, want 4", g.EdgeCount())
	}
	if g.Kind("ch:Das Erste") != NodeChannel || g.Kind("ard.de") != NodeDomain {
		t.Error("node kinds wrong")
	}
	if g.Degree("ard.de") != 4 {
		t.Errorf("ard.de degree = %d, want 4", g.Degree("ard.de"))
	}
	if len(g.Components()) != 1 {
		t.Error("ecosystem should be one component")
	}
	// Third parties hang off the first party, not the channels: the
	// channel nodes keep degree 1 (as in the paper's construction).
	if g.Degree("ch:Das Erste") != 1 {
		t.Errorf("channel degree = %d, want 1", g.Degree("ch:Das Erste"))
	}
}
