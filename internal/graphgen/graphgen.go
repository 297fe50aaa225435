// Package graphgen produces deterministic synthetic graphs standing in for
// the paper's datasets (Table 2: Wikipedia-EN, Webbase, Hollywood, Twitter,
// plus the FOAF subgraph of Figure 2).
//
// The real graphs are not redistributable and are far beyond laptop scale,
// so each generator reproduces the property the paper's experiments depend
// on, at a configurable scale:
//
//   - web graphs (wikipedia, webbase): moderate average degree; webbase
//     additionally has a giant component with a very large diameter, which
//     is what makes Connected Components take 744 supersteps in the paper
//     (Figure 10). We model it with chained communities: local clusters
//     linked in a long chain.
//   - social graphs (hollywood, twitter): skewed, power-law-ish degree
//     distribution and high density (hollywood avg. degree 115), generated
//     with R-MAT / preferential attachment.
//   - FOAF: a small social graph with one dominant component plus fringe,
//     used to show the decaying working set (Figure 2).
//
// All generators are fully deterministic given a seed.
package graphgen

import (
	"fmt"
	"sort"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int64
}

// Graph is an edge-list graph with vertex ids in [0, NumVertices).
type Graph struct {
	Name        string
	NumVertices int64
	Edges       []Edge
}

// NumEdges returns the number of (directed) edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Edges)) }

// AvgDegree returns the average out-degree, matching the paper's Table 2
// metric (edges divided by vertices).
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.NumVertices)
}

// Undirected returns a copy of the graph with every edge symmetrized and
// self-loops plus duplicate edges removed. Connected Components interprets
// links as undirected (§6.2: "we interpreted the links as undirected").
func (g *Graph) Undirected() *Graph {
	seen := make(map[Edge]struct{}, 2*len(g.Edges))
	out := make([]Edge, 0, 2*len(g.Edges))
	add := func(e Edge) {
		if e.Src == e.Dst {
			return
		}
		if _, dup := seen[e]; dup {
			return
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	for _, e := range g.Edges {
		add(e)
		add(Edge{Src: e.Dst, Dst: e.Src})
	}
	return &Graph{Name: g.Name + "-undirected", NumVertices: g.NumVertices, Edges: out}
}

// rng is a small deterministic xorshift64* generator so graph shapes do not
// depend on Go's math/rand version.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Uniform generates an Erdős–Rényi style graph with numEdges directed
// edges drawn uniformly (self-loops skipped, duplicates allowed as in real
// crawls).
func Uniform(name string, numVertices, numEdges int64, seed uint64) *Graph {
	r := newRNG(seed)
	edges := make([]Edge, 0, numEdges)
	for int64(len(edges)) < numEdges {
		s, d := r.intn(numVertices), r.intn(numVertices)
		if s == d {
			continue
		}
		edges = append(edges, Edge{Src: s, Dst: d})
	}
	return &Graph{Name: name, NumVertices: numVertices, Edges: edges}
}

// RMAT generates a recursive-matrix (Kronecker-like) graph producing a
// skewed, power-law-ish degree distribution, suitable for social graphs.
// Probabilities (a, b, c) steer edges to the four quadrants, d = 1-a-b-c.
func RMAT(name string, scale int, numEdges int64, a, b, c float64, seed uint64) *Graph {
	n := int64(1) << scale
	r := newRNG(seed)
	edges := make([]Edge, 0, numEdges)
	for int64(len(edges)) < numEdges {
		var src, dst int64
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.float()
			switch {
			case p < a:
				// top-left: neither bit set
			case p < a+b:
				dst |= 1 << bit
			case p < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src == dst {
			src, dst = 0, 0
			continue
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
		src, dst = 0, 0
	}
	return &Graph{Name: name, NumVertices: n, Edges: edges}
}

// PreferentialAttachment generates a Barabási–Albert style graph: each new
// vertex attaches m edges to existing vertices chosen proportionally to
// their degree. Produces one connected power-law component — a good model
// for the Hollywood collaboration graph and the FOAF crawl.
func PreferentialAttachment(name string, numVertices int64, m int, seed uint64) *Graph {
	if numVertices < 2 {
		numVertices = 2
	}
	if m < 1 {
		m = 1
	}
	r := newRNG(seed)
	edges := make([]Edge, 0, numVertices*int64(m))
	// targets holds one entry per edge endpoint; sampling uniformly from it
	// is sampling proportionally to degree.
	targets := make([]int64, 0, 2*numVertices*int64(m))
	edges = append(edges, Edge{Src: 0, Dst: 1})
	targets = append(targets, 0, 1)
	for v := int64(2); v < numVertices; v++ {
		attach := m
		if int64(attach) > v {
			attach = int(v)
		}
		chosen := make(map[int64]struct{}, attach)
		for len(chosen) < attach {
			t := targets[r.intn(int64(len(targets)))]
			if t == v {
				continue
			}
			chosen[t] = struct{}{}
		}
		// Deterministic edge order regardless of map iteration.
		picks := make([]int64, 0, attach)
		for t := range chosen {
			picks = append(picks, t)
		}
		sort.Slice(picks, func(i, j int) bool { return picks[i] < picks[j] })
		for _, t := range picks {
			edges = append(edges, Edge{Src: v, Dst: t})
			targets = append(targets, v, t)
		}
	}
	return &Graph{Name: name, NumVertices: numVertices, Edges: edges}
}

// ChainedCommunities generates numCommunities dense local clusters of
// communitySize vertices, linked into one long chain by single bridge
// edges. The resulting giant component has diameter proportional to the
// number of communities, which forces Connected Components into a long
// convergence tail exactly like the paper's Webbase run (Figure 10:
// 744 supersteps to full convergence).
func ChainedCommunities(name string, numCommunities, communitySize int64, intraEdges int, seed uint64) *Graph {
	r := newRNG(seed)
	n := numCommunities * communitySize
	// Vertex-id blocks are assigned to chain positions through a random
	// permutation. With ids increasing along the chain, min-label
	// propagation would improve every downstream community once per wave
	// step (a pathological O(V·diameter) cascade no real graph exhibits);
	// with shuffled blocks each vertex improves only O(log n) times —
	// once per new prefix minimum passing through — while the diameter,
	// and hence the superstep count, stays proportional to the chain.
	perm := make([]int64, numCommunities)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := int64(numCommunities) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	edges := make([]Edge, 0, numCommunities*int64(intraEdges)+numCommunities)
	for c := int64(0); c < numCommunities; c++ {
		base := perm[c] * communitySize
		// A ring inside the community keeps it connected...
		for i := int64(0); i < communitySize; i++ {
			edges = append(edges, Edge{Src: base + i, Dst: base + (i+1)%communitySize})
		}
		// ...plus random chords for density.
		for i := 0; i < intraEdges; i++ {
			s, d := base+r.intn(communitySize), base+r.intn(communitySize)
			if s == d {
				continue
			}
			edges = append(edges, Edge{Src: s, Dst: d})
		}
		// Bridge to the next community on the chain (chain, not ring, to
		// maximize diameter).
		if c+1 < numCommunities {
			next := perm[c+1] * communitySize
			edges = append(edges, Edge{Src: base + communitySize - 1, Dst: next})
		}
	}
	return &Graph{Name: name, NumVertices: n, Edges: edges}
}

// WithDiameterTail appends a simple path of the given length, attached to
// vertex `attach` of the existing graph. The tail stretches the giant
// component's diameter so label-propagation algorithms need ~length extra
// supersteps to converge — the long, sparse convergence tail the paper's
// real graphs exhibit (Wikipedia and Twitter take 14 supersteps, §6.2)
// and the regime where incremental iterations dominate bulk ones.
func (g *Graph) WithDiameterTail(length int64, attach int64) *Graph {
	if length <= 0 {
		return g
	}
	edges := append([]Edge(nil), g.Edges...)
	base := g.NumVertices
	edges = append(edges, Edge{Src: attach, Dst: base})
	for i := int64(0); i+1 < length; i++ {
		edges = append(edges, Edge{Src: base + i, Dst: base + i + 1})
	}
	return &Graph{Name: g.Name, NumVertices: base + length, Edges: edges}
}

// WithIsolatedFringe appends extra vertices connected in small star
// clusters of the given size, modelling the disconnected fringe real crawls
// have (so Connected Components yields many components, not one).
func (g *Graph) WithIsolatedFringe(clusters int64, clusterSize int64, seed uint64) *Graph {
	edges := append([]Edge(nil), g.Edges...)
	base := g.NumVertices
	for c := int64(0); c < clusters; c++ {
		center := base + c*clusterSize
		for i := int64(1); i < clusterSize; i++ {
			edges = append(edges, Edge{Src: center, Dst: center + i})
		}
	}
	return &Graph{
		Name:        g.Name,
		NumVertices: g.NumVertices + clusters*clusterSize,
		Edges:       edges,
	}
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s{V=%d E=%d avg=%.2f}", g.Name, g.NumVertices, g.NumEdges(), g.AvgDegree())
}
