// Package difftest cross-checks every engine in the repository against
// each other and against independent oracles: on seeded random graphs,
// the incremental driver (through RunIncremental and the microstep
// entry), the Pregel-style engine and the Spark-style engine must all
// converge to the same Connected Components fixpoints, and the incremental
// driver to the Dijkstra SSSP distances, at every parallelism, with and
// without a solution-set memory budget (the compact index, or the same
// index spilled to disk). This is the correctness-first methodology of differential
// engine testing: the engines share almost no code on these paths, so
// agreement on randomized inputs is strong evidence that each one is
// right.
//
// It is also the repository's one test-support package. Its non-test
// file holds the oracles that the tests of several packages share —
// union-find Connected Components, Dijkstra shortest paths and unit edge
// weights — and no non-test file may import it (the root package's
// TestNoTestOnlyAPI enforces both).
package difftest

import (
	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/record"
)

// CCReference computes the ground truth with union-find, labelling each
// component by its minimum vertex id.
func CCReference(g *graphgen.Graph) map[int64]int64 {
	vertices, edges := make([]int64, g.NumVertices), make([]record.Record, len(g.Edges))
	for i := range vertices {
		vertices[i] = int64(i)
	}
	for i, e := range g.Edges {
		edges[i] = record.Record{A: e.Src, B: e.Dst}
	}
	return CCOf(vertices, edges)
}

// CCOf is CCReference over the given vertices and edges A–B, such as a live
// view's GraphState.Vertices and UndirectedRecords.
func CCOf(vertices []int64, edges []record.Record) map[int64]int64 {
	parent := make(map[int64]int64, len(vertices))
	for _, v := range vertices {
		parent[v] = v
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := find(e.A), find(e.B)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	out := make(map[int64]int64, len(parent))
	for v := range parent {
		out[v] = find(v)
	}
	return out
}

// SSSPReference is a Dijkstra oracle used to verify the iterative
// variants.
func SSSPReference(edges []algorithms.WeightedEdge, source int64) map[int64]float64 {
	adj := make(map[int64][]algorithms.WeightedEdge)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e)
	}
	dist := make(map[int64]float64)
	dist[source] = 0
	// Simple heap as a slice of (vertex, dist) pairs.
	type item struct {
		v int64
		d float64
	}
	heap := []item{{source, 0}}
	pop := func() item {
		best := 0
		for i := range heap {
			if heap[i].d < heap[best].d {
				best = i
			}
		}
		it := heap[best]
		heap = append(heap[:best], heap[best+1:]...)
		return it
	}
	done := make(map[int64]bool)
	for len(heap) > 0 {
		it := pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, e := range adj[it.v] {
			nd := it.d + e.Weight
			if cur, ok := dist[e.Dst]; !ok || nd < cur-1e-12 {
				dist[e.Dst] = nd
				heap = append(heap, item{e.Dst, nd})
			}
		}
	}
	return dist
}

// UnitWeights converts a graph's (undirected) edges to weight-1 edges.
func UnitWeights(g *graphgen.Graph) []algorithms.WeightedEdge {
	und := g.Undirected()
	out := make([]algorithms.WeightedEdge, len(und.Edges))
	for i, e := range und.Edges {
		out[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: 1}
	}
	return out
}
