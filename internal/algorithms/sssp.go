package algorithms

import (
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// WeightedEdge is an edge with a non-negative weight.
type WeightedEdge struct {
	Src, Dst int64
	Weight   float64
}

// UnitWeights converts a graph's (undirected) edges to weight-1 edges.
func UnitWeights(g *graphgen.Graph) []WeightedEdge {
	und := g.Undirected()
	out := make([]WeightedEdge, len(und.Edges))
	for i, e := range und.Edges {
		out[i] = WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: 1}
	}
	return out
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

// SSSP runs incremental single-source shortest paths in supersteps and
// returns vertex -> distance for all reached vertices.
func SSSP(edges []WeightedEdge, source int64, cfg iterative.Config) (map[int64]float64, *iterative.IncrementalResult, error) {
	spec, s0, w0 := SSSPSpec(edges, source)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		return nil, nil, err
	}
	return distMap(res.Solution), res, nil
}

// SSSPMicrostep runs the same iteration through the microstep entry.
func SSSPMicrostep(edges []WeightedEdge, source int64, cfg iterative.Config) (map[int64]float64, *iterative.IncrementalResult, error) {
	spec, s0, w0 := SSSPSpec(edges, source)
	res, err := iterative.RunMicrostep(spec, s0, w0, cfg)
	if err != nil {
		return nil, nil, err
	}
	return distMap(res.Solution), res, nil
}

func distMap(recs []record.Record) map[int64]float64 {
	m := make(map[int64]float64, len(recs))
	for _, r := range recs {
		m[r.A] = r.X
	}
	return m
}

// SSSPReference is a Dijkstra oracle used to verify the iterative
// variants.
func SSSPReference(edges []WeightedEdge, source int64) map[int64]float64 {
	adj := make(map[int64][]WeightedEdge)
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
