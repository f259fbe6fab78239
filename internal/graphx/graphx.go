// Package graphx is the study's NetworkX substitute: an undirected graph
// with the metrics Section V-E reports for the HbbTV ecosystem graph
// (Fig. 8) — component structure, degrees, average path length, and mean
// neighbor degree ("average connectivity").
package graphx

import (
	"math"
	"sort"
)

// NodeKind distinguishes the two node types of the ecosystem graph.
type NodeKind int

// Node kinds.
const (
	NodeChannel NodeKind = iota + 1
	NodeDomain
)

// Graph is a simple undirected graph with typed nodes.
type Graph struct {
	adj   map[string]map[string]struct{}
	kinds map[string]NodeKind
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		adj:   make(map[string]map[string]struct{}),
		kinds: make(map[string]NodeKind),
	}
}

// AddNode inserts a node (idempotent; the first kind wins).
func (g *Graph) AddNode(id string, kind NodeKind) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = make(map[string]struct{})
		g.kinds[id] = kind
	}
}

// AddEdge inserts an undirected edge, creating missing endpoints as domain
// nodes. Self loops and duplicate edges are ignored.
func (g *Graph) AddEdge(a, b string) {
	if a == b {
		return
	}
	g.AddNode(a, NodeDomain)
	g.AddNode(b, NodeDomain)
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
}

// Kind returns a node's kind (0 when absent).
func (g *Graph) Kind(id string) NodeKind { return g.kinds[id] }

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.adj) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// Degree returns a node's degree.
func (g *Graph) Degree(id string) int { return len(g.adj[id]) }

// Degrees returns every node's degree.
func (g *Graph) Degrees() map[string]int {
	out := make(map[string]int, len(g.adj))
	for id, nb := range g.adj {
		out[id] = len(nb)
	}
	return out
}

// NodeDegree pairs a node with its degree for rankings.
type NodeDegree struct {
	Node   string
	Degree int
}

// CountDegreeAtLeast counts nodes with degree >= k.
func (g *Graph) CountDegreeAtLeast(k int) int {
	n := 0
	for _, nb := range g.adj {
		if len(nb) >= k {
			n++
		}
	}
	return n
}

// Components returns the connected components, largest first.
func (g *Graph) Components() [][]string {
	seen := make(map[string]bool, len(g.adj))
	var comps [][]string
	for id := range g.adj {
		if seen[id] {
			continue
		}
		var comp []string
		queue := []string{id}
		seen[id] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for nb := range g.adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool { return len(comps[a]) > len(comps[b]) })
	return comps
}

// PathLengthFrom returns the sum of shortest-path distances from src to
// every reachable node and the number of such (src, dst) pairs. Summed
// over every source, the two totals give the average shortest-path length
// over all connected node pairs. The graph is read-only during the call,
// so callers may fan BFS sources out over goroutines; integer sums make
// the reduction order-independent, so the total — and the average
// computed from it — is identical however the sources are partitioned.
func (g *Graph) PathLengthFrom(src string) (totalDist, pairs int64) {
	dist := g.bfs(src)
	for dst, d := range dist {
		if dst != src {
			totalDist += int64(d)
			pairs++
		}
	}
	return totalDist, pairs
}

func (g *Graph) bfs(src string) map[string]int {
	dist := map[string]int{src: 0}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nb := range g.adj[cur] {
			if _, ok := dist[nb]; !ok {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// Nodes returns node ids in lexical order — the stable enumeration used
// both for deterministic float summations and for partitioning BFS sources
// across workers.
func (g *Graph) Nodes() []string { return g.sortedNodes() }

// sortedNodes returns node ids in lexical order, making float summations
// deterministic regardless of map iteration order.
func (g *Graph) sortedNodes() []string {
	out := make([]string, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// MeanNeighborDegree returns the mean over nodes of the average degree of
// their neighbors — the "average connectivity of a node" statistic; in a
// hub-dominated graph this far exceeds the average degree.
func (g *Graph) MeanNeighborDegree() float64 {
	var sum float64
	var n int
	for _, id := range g.sortedNodes() {
		nb := g.adj[id]
		if len(nb) == 0 {
			continue
		}
		var dsum int
		for v := range nb {
			dsum += len(g.adj[v])
		}
		sum += float64(dsum) / float64(len(nb))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DegreeStats returns the mean and (population) standard deviation of node
// degrees.
func (g *Graph) DegreeStats() (mean, sd float64) {
	n := len(g.adj)
	if n == 0 {
		return 0, 0
	}
	nodes := g.sortedNodes()
	var sum float64
	for _, id := range nodes {
		sum += float64(len(g.adj[id]))
	}
	mean = sum / float64(n)
	var ss float64
	for _, id := range nodes {
		d := float64(len(g.adj[id])) - mean
		ss += d * d
	}
	sd = math.Sqrt(ss / float64(n))
	return mean, sd
}

// FromChannelParties builds the ecosystem graph per Section V-E from a
// channel -> observed-party mapping (the parties are eTLD+1s): each
// channel node is connected to its identified first party, and every
// third party observed on that channel is connected to the channel's
// first-party node. Nodes and edges are set-valued and insertion is
// idempotent, so the graph is independent of map iteration order.
func FromChannelParties(thirdParties map[string]map[string]struct{}, firstParty map[string]string) *Graph {
	g := New()
	for channel, parties := range thirdParties {
		fp := firstParty[channel]
		if fp == "" {
			continue
		}
		g.AddNode("ch:"+channel, NodeChannel)
		g.AddNode(fp, NodeDomain)
		g.AddEdge("ch:"+channel, fp)
		for p := range parties {
			if p == fp {
				continue
			}
			g.AddNode(p, NodeDomain)
			g.AddEdge(fp, p)
		}
	}
	return g
}
