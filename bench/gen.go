package main

import (
	"repro/internal/graphgen"
	"repro/internal/live"
)

// Every input comes from this file's generators and the run's seed: the
// program under test never sees the seed, only the records, mutations and
// HTTP bodies built here. The generators are the benchmark's own (not
// internal/graphgen's), so a later change to the repo's dataset package
// cannot silently change what the ledger measures.

// rng is splitmix64: small, fast, and good enough for graph shapes.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

type edge = graphgen.Edge

// rmat draws numEdges directed edges over 2^scale vertices from the
// recursive-matrix distribution (a, b, c, 1-a-b-c): a skewed, power-law
// degree distribution with one giant component and an isolated fringe.
func rmat(r *rng, scale int, numEdges int64, a, b, c float64) *graphgen.Graph {
	edges := make([]edge, 0, numEdges)
	for int64(len(edges)) < numEdges {
		var src, dst int64
		for bit := scale - 1; bit >= 0; bit-- {
			switch p := r.float(); {
			case p < a:
			case p < a+b:
				dst |= 1 << bit
			case p < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src != dst {
			edges = append(edges, edge{Src: src, Dst: dst})
		}
	}
	return &graphgen.Graph{Name: "rmat", NumVertices: 1 << scale, Edges: edges}
}

// withTail hangs a simple path of the given length off vertex 0, so label
// propagation needs ~length more supersteps with a near-empty workset —
// and needs the same number of them whatever the seed drew above.
func withTail(g *graphgen.Graph, length int64) *graphgen.Graph {
	base := g.NumVertices
	g.Edges = append(g.Edges, edge{Src: 0, Dst: base})
	for i := int64(0); i+1 < length; i++ {
		g.Edges = append(g.Edges, edge{Src: base + i, Dst: base + i + 1})
	}
	g.NumVertices += length
	return g
}

// chained builds `communities` ring-plus-chords clusters of `size`
// vertices linked into one chain by single bridges: a giant component
// whose diameter, and so the superstep count of label propagation, grows
// with the chain while each superstep touches only a few records. Block
// ids are permuted along the chain so labels do not cascade pathologically;
// the permutation is the same for every seed, because it decides how many
// times each vertex is relabelled — the seed only draws the chords.
func chained(r *rng, communities, size int64, chords int) *graphgen.Graph {
	perm := newRNG(0, 0).perm(communities)
	// Block 0 holds the smallest id, whose label must reach every vertex:
	// at the head of the chain it has the whole chain to travel.
	for i, b := range perm {
		if b == 0 {
			perm[0], perm[i] = perm[i], perm[0]
		}
	}
	edges := make([]edge, 0, communities*(size+int64(chords)+1))
	for c := int64(0); c < communities; c++ {
		base := perm[c] * size
		for i := int64(0); i < size; i++ {
			edges = append(edges, edge{Src: base + i, Dst: base + (i+1)%size})
		}
		for i := 0; i < chords; i++ {
			if s, d := base+r.intn(size), base+r.intn(size); s != d {
				edges = append(edges, edge{Src: s, Dst: d})
			}
		}
		if c+1 < communities {
			edges = append(edges, edge{Src: base + size - 1, Dst: perm[c+1] * size})
		}
	}
	return &graphgen.Graph{Name: "chained", NumVertices: communities * size, Edges: edges}
}

// islandSpan is the id range reserved per island: the first islandSize ids
// exist from the start, the rest are vertices the mutation stream creates.
const islandSpan = 64

// islands builds n disjoint components of `size` vertices (a random
// spanning path plus random chords each). Component-local mutations then
// touch a bounded region, which is what live maintenance exploits.
func islands(r *rng, n, size int64, chords int) []edge {
	edges := make([]edge, 0, n*(size+int64(chords)))
	for c := int64(0); c < n; c++ {
		base := c * islandSpan
		order := r.perm(size)
		for i := int64(1); i < size; i++ {
			edges = append(edges, edge{Src: base + order[i-1], Dst: base + order[i]})
		}
		for i := 0; i < chords; i++ {
			if s, d := base+r.intn(size), base+r.intn(size); s != d {
				edges = append(edges, edge{Src: s, Dst: d})
			}
		}
	}
	return edges
}

// prefAttach grows a Barabási–Albert graph: every new vertex attaches m
// edges to existing vertices chosen proportionally to degree. One
// connected power-law component.
func prefAttach(r *rng, n int64, m int) []edge {
	edges := make([]edge, 0, n*int64(m))
	ends := make([]int64, 0, 2*n*int64(m))
	edges = append(edges, edge{Src: 0, Dst: 1})
	ends = append(ends, 0, 1)
	for v := int64(2); v < n; v++ {
		picked := make([]int64, 0, m)
	pick:
		for len(picked) < m && int64(len(picked)) < v {
			t := ends[r.intn(int64(len(ends)))]
			for _, p := range picked {
				if p == t {
					continue pick
				}
			}
			picked = append(picked, t)
		}
		for _, t := range picked {
			edges = append(edges, edge{Src: v, Dst: t})
			ends = append(ends, v, t)
		}
	}
	return edges
}

func insertsOf(edges []edge) []live.Mutation {
	out := make([]live.Mutation, len(edges))
	for i, e := range edges {
		out[i] = live.InsertEdge(e.Src, e.Dst)
	}
	return out
}

// churnStream is the live workloads' fixed mutation stream over an islands
// graph: three of every four batches are `inserts` intra-island edge
// inserts (half of them to a vertex that does not exist yet), the fourth
// is `deletes` deletions of edges that exist at that point. It returns the
// batches and the edge set after the whole stream, for the oracle.
func churnStream(r *rng, initial []edge, numIslands, size int64, batches, inserts, deletes int) ([][]live.Mutation, []edge) {
	// The view keeps directed edges (and reads them as undirected), so the
	// stream deletes exactly the (src, dst) pairs that were inserted.
	var alive []edge // insertion-ordered, so the stream is seed-determined
	index := make(map[edge]int, len(initial))
	add := func(k edge) {
		if _, dup := index[k]; !dup {
			index[k] = len(alive)
			alive = append(alive, k)
		}
	}
	for _, e := range initial {
		add(e)
	}
	grown := make([]int64, numIslands) // vertices added per island so far
	stream := make([][]live.Mutation, 0, batches)
	for b := 0; b < batches; b++ {
		if b%4 == 3 {
			batch := make([]live.Mutation, 0, deletes)
			for len(batch) < deletes {
				i := int(r.intn(int64(len(alive))))
				k := alive[i]
				last := alive[len(alive)-1]
				alive[i], index[last] = last, i
				alive = alive[:len(alive)-1]
				delete(index, k)
				batch = append(batch, live.DeleteEdge(k.Src, k.Dst))
			}
			stream = append(stream, batch)
			continue
		}
		batch := make([]live.Mutation, 0, inserts)
		for i := 0; i < inserts; i++ {
			c := r.intn(numIslands)
			base := c * islandSpan
			src := base + r.intn(size+grown[c])
			dst := base + r.intn(size+grown[c])
			if i%2 == 1 && size+grown[c] < islandSpan {
				dst = base + size + grown[c]
				grown[c]++
			}
			if src == dst {
				dst = base + (dst-base+1)%size
			}
			add(edge{Src: src, Dst: dst})
			batch = append(batch, live.InsertEdge(src, dst))
		}
		stream = append(stream, batch)
	}
	return stream, alive
}

// Oracles. None of them shares code with the program under test.

// unionFind labels every vertex that appears in edges (plus `extra`) with
// the smallest vertex id of its component — the fixpoint min-label
// propagation converges to.
func unionFind(edges []edge, extra []int64) map[int64]int64 {
	parent := make(map[int64]int64, len(edges))
	var find func(int64) int64
	find = func(x int64) int64 {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, v := range extra {
		find(v)
	}
	for _, e := range edges {
		a, b := find(e.Src), find(e.Dst)
		switch {
		case a < b:
			parent[b] = a
		case b < a:
			parent[a] = b
		}
	}
	out := make(map[int64]int64, len(parent))
	for v := range parent {
		out[v] = find(v)
	}
	return out
}

// denseVertices lists 0..n-1, for graphs whose isolated vertices are part
// of the solution.
func denseVertices(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// powerIteration is the PageRank oracle: damped power iteration in which
// dangling vertices leak their mass, as the dataflow of Figure 3 does.
func powerIteration(g *graphgen.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices
	outdeg := make([]float64, n)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] / outdeg[e.Src]
		}
		rank = next
	}
	return rank
}
