package graphx

import (
	"math/rand"
	"testing"
)

// TestMetricsDeterministic: float-valued metrics must not depend on map
// iteration order, since analysis reports are compared byte-for-byte.
func TestMetricsDeterministic(t *testing.T) {
	build := func() *Graph {
		g := New()
		rng := rand.New(rand.NewSource(9))
		nodes := make([]string, 60)
		for i := range nodes {
			nodes[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
		}
		for i := 0; i < 150; i++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			g.AddEdge(a, b)
		}
		return g
	}
	g1, g2 := build(), build()
	if m1, m2 := g1.MeanNeighborDegree(), g2.MeanNeighborDegree(); m1 != m2 {
		t.Errorf("MeanNeighborDegree: %v vs %v", m1, m2)
	}
	mean1, sd1 := g1.DegreeStats()
	mean2, sd2 := g2.DegreeStats()
	if mean1 != mean2 || sd1 != sd2 {
		t.Errorf("DegreeStats: (%v,%v) vs (%v,%v)", mean1, sd1, mean2, sd2)
	}
}

func TestSortedNodesSorted(t *testing.T) {
	g := New()
	g.AddEdge("zeta", "alpha")
	g.AddEdge("mid", "alpha")
	nodes := g.sortedNodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("nodes not sorted: %v", nodes)
		}
	}
}
