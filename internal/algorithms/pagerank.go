package algorithms

import (
	"math"

	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// DefaultDamping is the conventional PageRank damping factor.
const DefaultDamping = 0.85

// PlanVariant selects the PageRank execution plan of Figure 4.
type PlanVariant int

// Plan variants.
const (
	// PlanAuto lets the optimizer's cost model decide.
	PlanAuto PlanVariant = iota
	// PlanBroadcast forces the Figure-4 left plan (Mahout-style):
	// replicate the rank vector, keep the cached matrix in place.
	PlanBroadcast
	// PlanPartition forces the Figure-4 right plan (Pegasus-style):
	// partition the rank vector, re-partition for the aggregation.
	PlanPartition
)

func (v PlanVariant) String() string {
	switch v {
	case PlanBroadcast:
		return "broadcast"
	case PlanPartition:
		return "partition"
	}
	return "auto"
}

// PageRankSpec assembles the bulk-iterative PageRank dataflow of Figure 3:
// the rank vector joins the transition matrix on pid, contributions are
// summed per tid, and a teleport term keeps every vertex present. When
// epsilon > 0, a termination criterion T (a Match of old and new ranks
// emitting a record when a rank moved more than epsilon) drives
// convergence; otherwise the iteration runs for the fixed count.
func PageRankSpec(g *graphgen.Graph, iterations int, damping, epsilon float64) (iterative.BulkSpec, []record.Record) {
	return PageRankSpecVariant(g, iterations, damping, epsilon, PlanAuto)
}

// PageRankSpecVariant is PageRankSpec with an explicit Figure-4 plan
// choice.
func PageRankSpecVariant(g *graphgen.Graph, iterations int, damping, epsilon float64, variant PlanVariant) (iterative.BulkSpec, []record.Record) {
	n := float64(g.NumVertices)
	plan := dataflow.NewPlan()

	ranks := plan.IterationPlaceholder("p", g.NumVertices)
	matrix := plan.SourceOf("A", TransitionMatrixRecords(g))

	// Join p and A on pid: contribution d * r * p for the target page.
	join := plan.MatchNode("joinPA", ranks, matrix, record.KeyA, record.KeyB,
		func(r, a record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: a.A, X: damping * r.X * a.X})
		})
	join.Preserve(1, record.KeyA) // the matrix row index (tid) passes through
	join.EstRecords = g.NumEdges()

	// The teleport source re-seeds every vertex each iteration (and keeps
	// vertices without in-links alive); it is loop-invariant and cached.
	teleport := make([]record.Record, g.NumVertices)
	for i := range teleport {
		teleport[i] = record.Record{A: int64(i), X: (1 - damping) / n}
	}
	base := plan.SourceOf("teleport", teleport)

	all := plan.UnionNode("contrib", join, base)

	sum := plan.ReduceNode("sumRanks", all, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {
			var s float64
			for _, r := range g {
				s += r.X
			}
			out.Emit(record.Record{A: k, X: s})
		})
	sum.Combinable = true
	sum.EstRecords = g.NumVertices

	next := plan.SinkNode("O", sum)

	spec := iterative.BulkSpec{
		Plan:            plan,
		Input:           ranks,
		Output:          next,
		FixedIterations: iterations,
	}
	switch variant {
	case PlanBroadcast:
		// The rank vector is the left join input.
		spec.JoinHints = map[int]optimizer.JoinHint{join.ID: optimizer.HintBroadcastLeft}
	case PlanPartition:
		spec.JoinHints = map[int]optimizer.JoinHint{join.ID: optimizer.HintRepartition}
	}
	if epsilon > 0 {
		// T of Figure 3: join old and new ranks, emit when |Δ| > ε.
		t := plan.MatchNode("checkDelta", ranks, sum, record.KeyA, record.KeyA,
			func(old, new record.Record, out dataflow.Emitter) {
				if math.Abs(old.X-new.X) > epsilon {
					out.Emit(record.Record{A: 1})
				}
			})
		spec.Termination = plan.SinkNode("T", t)
		spec.FixedIterations = 0
		spec.MaxIterations = iterations
	}
	return spec, InitialRankRecords(g)
}

// PageRankVariant runs PageRank with a forced Figure-4 plan.
func PageRankVariant(g *graphgen.Graph, iterations int, variant PlanVariant, cfg iterative.Config) (map[int64]float64, *iterative.BulkResult, error) {
	spec, initial := PageRankSpecVariant(g, iterations, DefaultDamping, 0, variant)
	res, err := iterative.RunBulk(spec, initial, cfg)
	if err != nil {
		return nil, nil, err
	}
	return RanksToMap(res.Solution), res, nil
}
