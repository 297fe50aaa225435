// Package difftest cross-checks every engine in the repository against
// each other and against independent oracles: on seeded random graphs,
// the incremental driver (through RunIncremental and the microstep
// entry), the Pregel-style engine and the Spark-style engine must all
// converge to the same Connected Components and SSSP fixpoints, at every
// parallelism, regardless of the solution-set backend (map, compact, or
// spilled under a memory budget). This is the correctness-first methodology of
// differential engine testing: the engines share almost no code on these
// paths, so agreement on randomized inputs is strong evidence that each
// one is right.
package difftest

import (
	"repro/internal/algorithms"
	"repro/internal/graphgen"
)

// diffGraphs returns the seeded random graphs the suite runs on: uniform
// (Erdős–Rényi) graphs of a few hundred edges plus a preferential-
// attachment graph, so both flat and skewed degree distributions are
// covered.
func diffGraphs() []*graphgen.Graph {
	return []*graphgen.Graph{
		graphgen.Uniform("diff-u1", 60, 120, 0xB10B),
		graphgen.Uniform("diff-u2", 80, 90, 0xC0FFEE), // sparse: many components
		graphgen.Uniform("diff-u3", 50, 200, 7),       // dense single component
		graphgen.PreferentialAttachment("diff-pa", 70, 2, 0xFEED),
	}
}

// diffWeights derives a deterministic small-integer weight for an edge, so
// path sums are exact in float64 and every engine sees identical lengths.
func diffWeight(src, dst int64) float64 {
	return float64(1 + (src*7+dst*13)%4)
}

// weightedEdges builds the weighted (directed, both orientations) edge
// list all SSSP engines run on.
func weightedEdges(g *graphgen.Graph) []algorithms.WeightedEdge {
	und := g.Undirected()
	out := make([]algorithms.WeightedEdge, len(und.Edges))
	for i, e := range und.Edges {
		out[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: diffWeight(e.Src, e.Dst)}
	}
	return out
}
