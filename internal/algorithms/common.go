// Package algorithms builds the paper's evaluation workloads as dataflow
// specs for the iteration engines:
//
//   - PageRank as a bulk iterative dataflow (Figure 3), with the optimizer
//     free to choose the broadcast or partition plan of Figure 4;
//   - Connected Components as a bulk dataflow, as an incremental
//     (CoGroup-variant) iteration and as a microstep (Match-variant)
//     iteration (Figure 5, §6.2);
//   - single-source shortest paths as a further incremental iteration
//     (§1), which live SSSP views maintain.
//
// Each *Spec function returns the spec with its initial solution (and
// workset); a caller runs it with the iterative.Run* entry point of its
// choice. CCIncremental and PageRankVariant, the two runs the figure
// harness makes, are the only runners. The Pregel-style and Spark-style
// baselines live in internal/pregel and internal/sparklike. The oracles
// the specs are tested against live in this package's tests and in
// internal/difftest. The workloads no program runs live in this
// package's tests: K-Means and batch gradient descent (bulk), transitive
// closure and adaptive PageRank (incremental, §5.1, §7.2).
package algorithms

import (
	"repro/internal/graphgen"
	"repro/internal/record"
)

// EdgeRecords converts a graph's edges to records (A=src, B=dst).
func EdgeRecords(g *graphgen.Graph) []record.Record {
	out := make([]record.Record, len(g.Edges))
	for i, e := range g.Edges {
		out[i] = record.Record{A: e.Src, B: e.Dst}
	}
	return out
}

// TransitionMatrixRecords builds the sparse column-stochastic PageRank
// matrix A as records (A=tid target, B=pid source, X=1/outdeg(source)),
// the layout of Figure 3.
func TransitionMatrixRecords(g *graphgen.Graph) []record.Record {
	outdeg := make([]int64, g.NumVertices)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	out := make([]record.Record, 0, len(g.Edges))
	for _, e := range g.Edges {
		out = append(out, record.Record{A: e.Dst, B: e.Src, X: 1 / float64(outdeg[e.Src])})
	}
	return out
}

// InitialRankRecords gives every page rank 1/N (A=pid, X=rank).
func InitialRankRecords(g *graphgen.Graph) []record.Record {
	n := g.NumVertices
	out := make([]record.Record, n)
	for i := int64(0); i < n; i++ {
		out[i] = record.Record{A: i, X: 1 / float64(n)}
	}
	return out
}

// InitialComponentRecords assigns every vertex its own id as component id
// (A=vid, B=cid).
func InitialComponentRecords(numVertices int64) []record.Record {
	out := make([]record.Record, numVertices)
	for i := int64(0); i < numVertices; i++ {
		out[i] = record.Record{A: i, B: i}
	}
	return out
}

// InitialCandidateRecords is the paper's W0 for Connected Components: for
// every vertex, the component ids of its neighbors (A=vid, B=candidate).
// edges must be the undirected edge set.
func InitialCandidateRecords(edges []record.Record) []record.Record {
	out := make([]record.Record, len(edges))
	for i, e := range edges {
		// Neighbor e.A proposes its own id as a candidate for e.B.
		out[i] = record.Record{A: e.B, B: e.A}
	}
	return out
}

// RanksToMap converts rank records to a map for comparisons.
func RanksToMap(recs []record.Record) map[int64]float64 {
	m := make(map[int64]float64, len(recs))
	for _, r := range recs {
		m[r.A] = r.X
	}
	return m
}

// ComponentsToMap converts component records to a map vid -> cid.
func ComponentsToMap(recs []record.Record) map[int64]int64 {
	m := make(map[int64]int64, len(recs))
	for _, r := range recs {
		m[r.A] = r.B
	}
	return m
}

// MinCidComparator is the ∪̇ comparator for Connected Components: the
// record with the smaller component id (field B) is the CPO-successor
// state and wins (§5.1).
func MinCidComparator(a, b record.Record) int {
	switch {
	case a.B < b.B:
		return 1
	case a.B > b.B:
		return -1
	}
	return 0
}

// MinDistComparator is the ∪̇ comparator for shortest paths: smaller
// distance (field X) wins.
func MinDistComparator(a, b record.Record) int {
	switch {
	case a.X < b.X:
		return 1
	case a.X > b.X:
		return -1
	}
	return 0
}
