package algorithms

import (
	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/record"
)

// WeightedEdge is an edge with a non-negative weight.
type WeightedEdge struct {
	Src, Dst int64
	Weight   float64
}

// SSSPSpec assembles single-source shortest paths as an incremental
// iteration (§1 lists shortest paths among the sparse-dependency
// algorithms): the solution set holds (vertex, bestDistance), the working
// set holds distance candidates, and the delta propagation relaxes the
// changed vertex's out-edges.
func SSSPSpec(edges []WeightedEdge, source int64) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", int64(len(edges)))

	update := plan.SolutionJoinNode("relax", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if !found || c.X < s.X {
				out.Emit(record.Record{A: c.A, X: c.X})
			}
		})
	update.Preserve(0, record.KeyA)
	dSink := plan.SinkNode("D", update)

	edgeRecs := make([]record.Record, len(edges))
	for i, e := range edges {
		edgeRecs[i] = record.Record{A: e.Src, B: e.Dst, X: e.Weight}
	}
	n := plan.SourceOf("E", edgeRecs)
	prop := plan.MatchNode("relaxNeighbors", update, n, record.KeyA, record.KeyA,
		func(d, e record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: e.B, X: d.X + e.X})
		})
	wSink := plan.SinkNode("W'", prop)

	spec := iterative.IncrementalSpec{
		Plan:        plan,
		Workset:     w,
		DeltaSink:   dSink,
		WorksetSink: wSink,
		SolutionKey: record.KeyA,
		WorksetKey:  record.KeyA,
		Comparator:  MinDistComparator,
		// relax reads only the shortest candidate distance; tied
		// candidates are the same {vid, dist} record.
		BestCandidateOnly: true,
	}
	// The solution set starts empty; the seed candidate (source, 0) is
	// inserted by the first relaxation and spreads from there.
	w0 := []record.Record{{A: source, X: 0}}
	return spec, nil, w0
}
