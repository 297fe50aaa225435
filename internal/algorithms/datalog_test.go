package algorithms

import (
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// Transitive closure as an incremental iteration — the paper's §7.1
// relates workset iterations to semi-naïve Datalog evaluation:
//
//	reach(X, Y) :- edge(X, Y).
//	reach(X, Z) :- reach(X, Y), edge(Y, Z).
//
// The solution set holds the derived reach facts; the working set holds
// the newly derived facts of the last round (the semi-naïve delta); each
// superstep joins only the delta against the edge relation. Facts are
// only ever added (an inflationary fixpoint), so no comparator is needed —
// the delta operator suppresses re-derivations.
//
// Fact encoding: a pair (x, y) packs into one key A = x*stride + y, with
// x in B for the recursive join.

// TCSpec assembles the transitive-closure iteration for a graph with
// vertex ids below stride.
func TCSpec(g *graphgen.Graph) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	stride := g.NumVertices
	pack := func(x, y int64) int64 { return x*stride + y }

	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("ΔReach", g.NumEdges())

	// A new fact survives only if it is not already derived.
	novel := plan.SolutionJoinNode("novel", w, record.KeyA,
		func(fact, s record.Record, found bool, out dataflow.Emitter) {
			if !found {
				out.Emit(fact)
			}
		})
	novel.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", novel)

	// Recursive rule: reach(x, z) :- Δreach(x, y), edge(y, z).
	// The delta fact's y is recoverable from the packed key and x.
	edgeRecs := EdgeRecords(g)
	edges := plan.SourceOf("edge", edgeRecs)
	derive := plan.MapNode("unpackY", novel, func(fact record.Record, out dataflow.Emitter) {
		y := fact.A - fact.B*stride
		out.Emit(record.Record{A: y, B: fact.B}) // (join key y, x)
	})
	joined := plan.MatchNode("rule2", derive, edges, record.KeyA, record.KeyA,
		func(dy, e record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: pack(dy.B, e.B), B: dy.B})
		})
	w2 := plan.SinkNode("W'", joined)

	spec := iterative.IncrementalSpec{
		Plan:        plan,
		Workset:     w,
		DeltaSink:   d,
		WorksetSink: w2,
		SolutionKey: record.KeyA,
		WorksetKey:  record.KeyA,
	}

	// Base rule: reach(x, y) :- edge(x, y). Seeded through the workset so
	// the novelty check dedups parallel edges.
	w0 := make([]record.Record, 0, len(edgeRecs))
	for _, e := range edgeRecs {
		w0 = append(w0, record.Record{A: pack(e.A, e.B), B: e.A})
	}
	return spec, nil, w0
}

// TransitiveClosureReference computes the closure by repeated BFS.
func TransitiveClosureReference(g *graphgen.Graph) map[[2]int64]bool {
	adj := make([][]int64, g.NumVertices)
	for _, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	out := make(map[[2]int64]bool)
	for src := int64(0); src < g.NumVertices; src++ {
		seen := make(map[int64]bool)
		queue := append([]int64(nil), adj[src]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			out[[2]int64{src, v}] = true
			queue = append(queue, adj[v]...)
		}
	}
	return out
}
