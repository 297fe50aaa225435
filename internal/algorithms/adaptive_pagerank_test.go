package algorithms

import (
	"math"

	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// Adaptive PageRank (Kamvar et al., cited as [25]) as an incremental
// iteration — the paper's §7.2 argues this algorithm is expressible on the
// workset abstraction but hard on Pregel, because vertex activation and
// messaging are decoupled.
//
// The solution set holds (page, rank). The working set holds pending rank
// contributions (page, Δcontribution). A page whose accumulated
// contributions move its rank by more than epsilon updates its entry and
// propagates damped deltas along its out-edges; pages whose rank has
// converged stop propagating even though contributions may still arrive —
// exactly the adaptive behaviour of [25].
//
// The delta record encodes the rank change in field B (as float bits), so
// the propagation Match can scale it without re-reading the old solution.

// AdaptivePageRankSpec builds the incremental iteration.
func AdaptivePageRankSpec(g *graphgen.Graph, damping, epsilon float64) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	n := float64(g.NumVertices)
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", g.NumEdges())

	update := plan.SolutionCoGroupNode("applyContribs", w, record.KeyA,
		func(page int64, contribs []record.Record, s record.Record, found bool, out dataflow.Emitter) {
			var sum float64
			for _, c := range contribs {
				sum += c.X
			}
			var old float64
			if found {
				old = s.X
			}
			if math.Abs(sum) <= epsilon {
				return // converged page: absorb the contribution
			}
			out.Emit(record.Record{
				A: page,
				X: old + sum,
				B: int64(math.Float64bits(sum)), // carry the delta for propagation
			})
		})
	update.Preserve(0, record.KeyA)
	dSink := plan.SinkNode("D", update)

	matrix := plan.SourceOf("A", TransitionMatrixRecords(g))
	// Matrix records are (A=tid, B=pid, X=1/outdeg): join delta.page ==
	// matrix.pid, send damping * Δ * weight to the target page.
	prop := plan.MatchNode("propagateDelta", update, matrix, record.KeyA, record.KeyB,
		func(d, a record.Record, out dataflow.Emitter) {
			delta := math.Float64frombits(uint64(d.B))
			out.Emit(record.Record{A: a.A, X: damping * delta * a.X})
		})
	wSink := plan.SinkNode("W'", prop)

	spec := iterative.IncrementalSpec{
		Plan:        plan,
		Workset:     w,
		DeltaSink:   dSink,
		WorksetSink: wSink,
		SolutionKey: record.KeyA,
		WorksetKey:  record.KeyA,
		// No comparator: ranks are accumulated, the newest value wins.
	}

	// Ranks accumulate from a zero base: seeding every page with a
	// pending (1-d)/n contribution makes the total each page ever sends
	// equal d·a_ij·r_j, so the accumulated fixpoint is exactly
	// r_i = (1-d)/n + d·Σ_j a_ij·r_j.
	s0 := make([]record.Record, g.NumVertices)
	w0 := make([]record.Record, g.NumVertices)
	for i := int64(0); i < g.NumVertices; i++ {
		s0[i] = record.Record{A: i, X: 0}
		w0[i] = record.Record{A: i, X: (1 - damping) / n}
	}
	return spec, s0, w0
}
