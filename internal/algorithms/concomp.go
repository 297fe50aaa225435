package algorithms

import (
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// CCBulkSpec assembles the bulk-iterative Connected Components dataflow
// (the FIXPOINT-CC template of Table 1 as a dataflow): in each iteration
// every vertex's component id is recomputed as the minimum over itself and
// all neighbors. The full partial solution is re-materialized every pass —
// this is the baseline incremental iterations beat.
func CCBulkSpec(g *graphgen.Graph) (iterative.BulkSpec, []record.Record) {
	und := g.Undirected()
	edgeRecs, numVertices := EdgeRecords(und), und.NumVertices
	plan := dataflow.NewPlan()

	state := plan.IterationPlaceholder("S", numVertices)
	edges := plan.SourceOf("N", edgeRecs)

	// Each vertex sends its cid to every neighbor.
	send := plan.MatchNode("sendToNeighbors", state, edges, record.KeyA, record.KeyA,
		func(s, e record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: e.B, B: s.B})
		})
	send.EstRecords = int64(len(edgeRecs))

	// Every vertex also keeps its own cid as a candidate.
	all := plan.UnionNode("candidates", send, state)

	minCid := plan.ReduceNode("minCid", all, record.KeyA,
		func(k int64, grp []record.Record, out dataflow.Emitter) {
			m := grp[0].B
			for _, r := range grp[1:] {
				if r.B < m {
					m = r.B
				}
			}
			out.Emit(record.Record{A: k, B: m})
		})
	minCid.Combinable = true
	minCid.EstRecords = numVertices

	next := plan.SinkNode("O", minCid)

	spec := iterative.BulkSpec{
		Plan:   plan,
		Input:  state,
		Output: next,
		Converged: func(prev, next []record.Record) bool {
			return ComponentsEqual(prev, next)
		},
	}
	return spec, InitialComponentRecords(numVertices)
}

// ComponentsEqual compares two component assignments as sets.
func ComponentsEqual(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int64]int64, len(a))
	for _, r := range a {
		m[r.A] = r.B
	}
	for _, r := range b {
		if m[r.A] != r.B {
			return false
		}
	}
	return true
}

// CCVariant selects the incremental update operator.
type CCVariant int

// The two incremental Connected Components variants of §6.2.
const (
	// CCCoGroup groups all candidates of one vertex and updates it once
	// per superstep (the InnerCoGroup/batch-incremental variant of
	// Figure 5).
	CCCoGroup CCVariant = iota
	// CCMatch processes every candidate individually (the Match/microstep
	// variant of §5.2), admissible for direct merge.
	CCMatch
)

// CCIncrementalSpec assembles the incremental Connected Components
// iteration of Figure 5. The solution set holds (vid, cid); the working
// set holds candidate ids (vid, cid). The delta set feeds both the ∪̇
// merge and a Match with the neighborhood table N that creates candidates
// for the changed vertex's neighbors.
func CCIncrementalSpec(g *graphgen.Graph, variant CCVariant) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	und := g.Undirected()
	spec, w0 := ccSpecOverEdges(EdgeRecords(und), und.NumVertices, variant)
	return spec, InitialComponentRecords(und.NumVertices), w0
}

// CCMaintenanceSpec is CCIncrementalSpec over an explicit vertex set and a
// symmetrized (undirected, deduplicated) edge-record list, for callers
// whose graphs are not dense id spaces — live views whose vertices come
// and go. S0 assigns every listed vertex its own id; W0 is the full
// candidate set.
func CCMaintenanceSpec(vertices []int64, undirectedEdges []record.Record, variant CCVariant) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	spec, w0 := ccSpecOverEdges(undirectedEdges, int64(len(vertices)), variant)
	s0 := make([]record.Record, len(vertices))
	for i, v := range vertices {
		s0[i] = record.Record{A: v, B: v}
	}
	return spec, s0, w0
}

// ccSpecOverEdges builds the Δ dataflow of Figure 5 over the given
// undirected edge records; estVertices feeds the optimizer's delta-size
// estimate.
func ccSpecOverEdges(edgeRecs []record.Record, estVertices int64, variant CCVariant) (iterative.IncrementalSpec, []record.Record) {
	plan := dataflow.NewPlan()

	numEdges := int64(len(edgeRecs))
	w := plan.IterationPlaceholder("W", numEdges)

	var delta *dataflow.Node
	switch variant {
	case CCCoGroup:
		delta = plan.SolutionCoGroupNode("updateCC", w, record.KeyA,
			func(vid int64, ws []record.Record, s record.Record, found bool, out dataflow.Emitter) {
				m := ws[0].B
				for _, c := range ws[1:] {
					if c.B < m {
						m = c.B
					}
				}
				if found && m < s.B {
					out.Emit(record.Record{A: vid, B: m})
				}
			})
	case CCMatch:
		delta = plan.SolutionJoinNode("updateCC", w, record.KeyA,
			func(c, s record.Record, found bool, out dataflow.Emitter) {
				if found && c.B < s.B {
					out.Emit(record.Record{A: c.A, B: c.B})
				}
			})
	}
	delta.Preserve(0, record.KeyA) // updates stay with their vertex
	delta.EstRecords = estVertices / 2

	dSink := plan.SinkNode("D", delta)

	edges := plan.SourceOf("N", edgeRecs)
	propagate := plan.MatchNode("toNeighbors", delta, edges, record.KeyA, record.KeyA,
		func(d, e record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: e.B, B: d.B})
		})
	propagate.EstRecords = numEdges / 2
	wSink := plan.SinkNode("W'", propagate)

	spec := iterative.IncrementalSpec{
		Plan:        plan,
		Workset:     w,
		DeltaSink:   dSink,
		WorksetSink: wSink,
		SolutionKey: record.KeyA,
		WorksetKey:  record.KeyA,
		Comparator:  MinCidComparator,
		// updateCC reads only the smallest candidate cid; tied candidates
		// are the same {vid, cid} record.
		BestCandidateOnly: true,
	}
	return spec, InitialCandidateRecords(edgeRecs)
}

// CCIncremental runs the superstep-synchronized incremental Connected
// Components (either variant).
func CCIncremental(g *graphgen.Graph, variant CCVariant, cfg iterative.Config) (map[int64]int64, *iterative.IncrementalResult, error) {
	spec, s0, w0 := CCIncrementalSpec(g, variant)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ComponentsToMap(res.Solution), res, nil
}
