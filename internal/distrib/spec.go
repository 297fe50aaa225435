package distrib

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// buildGraph derives the job's graph. The generators are fully seeded, so
// every process reconstructs the identical edge list.
func buildGraph(js JobSpec) (*graphgen.Graph, error) {
	switch js.GraphKind {
	case "", "uniform":
		return graphgen.Uniform("distrib-uniform", js.GraphN, js.GraphM, js.Seed), nil
	case "uniform-tail":
		return graphgen.Uniform("distrib-uniform-tail", js.GraphN, js.GraphM, js.Seed).
			WithDiameterTail(js.GraphN/4, 0), nil
	case "pa":
		m := int(js.GraphM / max(1, js.GraphN))
		if m < 1 {
			m = 1
		}
		return graphgen.PreferentialAttachment("distrib-pa", js.GraphN, m, js.Seed), nil
	}
	return nil, fmt.Errorf("distrib: unknown graph kind %q", js.GraphKind)
}

// distWeight is the deterministic SSSP edge weight: a small integer
// derived from the endpoints, exact in float64, so path sums — and
// therefore the converged solution bytes — are identical on every process
// and every run.
func distWeight(src, dst int64) float64 {
	return float64(1 + (src*7+dst*13)%4)
}

// BuildSpec derives the job's incremental spec, initial solution, and
// initial workset from the JobSpec. Every host of a run and the RunSingle
// oracle call it with the same JobSpec, which is what makes their plans —
// and the estimates that decide plan epochs — identical.
func BuildSpec(js JobSpec) (iterative.IncrementalSpec, []record.Record, []record.Record, error) {
	var (
		spec   iterative.IncrementalSpec
		s0, w0 []record.Record
	)
	g, err := buildGraph(js)
	if err != nil {
		return spec, nil, nil, err
	}
	switch js.Algorithm {
	case "cc":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	case "cc-cogroup":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	case "sssp":
		und := g.Undirected()
		edges := make([]algorithms.WeightedEdge, len(und.Edges))
		for i, e := range und.Edges {
			edges[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: distWeight(e.Src, e.Dst)}
		}
		spec, s0, w0 = algorithms.SSSPSpec(edges, js.Source)
	default:
		return spec, nil, nil, fmt.Errorf("distrib: unknown algorithm %q", js.Algorithm)
	}
	// The same re-planning policy on every host; the superstep budget is
	// the iteration's own default.
	spec.Reoptimize = js.Reoptimize
	return spec, s0, w0, nil
}
