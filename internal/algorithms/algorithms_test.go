package algorithms_test

// An external test package: the Connected Components and SSSP tests
// check against the shared oracles of internal/difftest, which imports
// this package.

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/difftest"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

func figure1Graph() *graphgen.Graph {
	return &graphgen.Graph{
		Name:        "fig1",
		NumVertices: 9,
		Edges: []graphgen.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
			{Src: 4, Dst: 5},
			{Src: 6, Dst: 7}, {Src: 6, Dst: 8}, {Src: 7, Dst: 8},
		},
	}
}

func cfg(par int) iterative.Config {
	return iterative.Config{Parallelism: par}
}

// pageRankReference is the single-threaded oracle: standard damped power
// iteration with the same dangling-mass convention as the dataflow
// version.
func pageRankReference(g *graphgen.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices
	outdeg := make([]int64, n)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = (1 - damping) / float64(n)
		}
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outdeg[e.Src])
		}
		rank = next
	}
	return rank
}

func TestPageRankMatchesReference(t *testing.T) {
	for _, par := range []int{1, 4} {
		g := graphgen.Uniform("pr", 200, 1400, 11)
		got, res, err := algorithms.PageRankVariant(g, 15, algorithms.PlanAuto, cfg(par))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if res.Iterations != 15 {
			t.Errorf("par=%d: iterations=%d", par, res.Iterations)
		}
		want := pageRankReference(g, 15, algorithms.DefaultDamping)
		if len(got) != int(g.NumVertices) {
			t.Fatalf("par=%d: %d ranks for %d vertices", par, len(got), g.NumVertices)
		}
		for v, w := range want {
			if diff := math.Abs(got[int64(v)] - w); diff > 1e-9 {
				t.Fatalf("par=%d: vertex %d rank %g want %g (diff %g)", par, v, got[int64(v)], w, diff)
			}
		}
	}
}

func TestPageRankRanksSumToOne(t *testing.T) {
	g := graphgen.PreferentialAttachment("pa", 300, 3, 5)
	// PA graphs have no dangling vertices except vertex 0/1 boundary
	// cases; check total mass stays close to 1.
	got, _, err := algorithms.PageRankVariant(g, 20, algorithms.PlanAuto, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range got {
		sum += r
	}
	if sum < 0.5 || sum > 1.01 {
		t.Errorf("total rank mass = %g", sum)
	}
}

func TestPageRankEpsilonTermination(t *testing.T) {
	g := graphgen.Uniform("pr", 100, 600, 3)
	spec, initial := algorithms.PageRankSpec(g, 200, algorithms.DefaultDamping, 1e-7)
	res, err := iterative.RunBulk(spec, initial, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 3 || res.Iterations >= 200 {
		t.Errorf("epsilon termination after %d iterations", res.Iterations)
	}
	// The converged ranks must match a long fixed run.
	want := pageRankReference(g, 100, algorithms.DefaultDamping)
	got := algorithms.RanksToMap(res.Solution)
	for v := int64(0); v < g.NumVertices; v++ {
		if math.Abs(got[v]-want[v]) > 1e-4 {
			t.Fatalf("vertex %d: %g vs %g", v, got[v], want[v])
		}
	}
}

func assertComponents(t *testing.T, name string, got, want map[int64]int64, n int64) {
	t.Helper()
	if int64(len(got)) != n {
		t.Fatalf("%s: %d assignments for %d vertices", name, len(got), n)
	}
	for v := int64(0); v < n; v++ {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d -> %d, want %d", name, v, got[v], want[v])
		}
	}
}

func TestCCAllVariantsOnFigure1(t *testing.T) {
	g := figure1Graph()
	want := difftest.CCReference(g)

	for _, par := range []int{1, 3} {
		spec, initial := algorithms.CCBulkSpec(g)
		bres, err := iterative.RunBulk(spec, initial, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		assertComponents(t, "bulk", algorithms.ComponentsToMap(bres.Solution), want, g.NumVertices)
		// Figure 1: convergence in 2 steps plus one confirming step.
		if bres.Iterations > 4 {
			t.Errorf("bulk took %d iterations on the 9-vertex sample", bres.Iterations)
		}

		cg, _, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		assertComponents(t, "cogroup", cg, want, g.NumVertices)

		mt, _, err := algorithms.CCIncremental(g, algorithms.CCMatch, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		assertComponents(t, "match", mt, want, g.NumVertices)

		mspec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		mres, err := iterative.RunMicrostep(mspec, s0, w0, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		assertComponents(t, "microstep", algorithms.ComponentsToMap(mres.Solution), want, g.NumVertices)
		if mres.Microsteps == 0 {
			t.Error("microstep run reported zero steps")
		}
	}
}

func TestCCVariantsOnDatasets(t *testing.T) {
	for _, ds := range []graphgen.Dataset{graphgen.DSWikipedia, graphgen.DSFOAF} {
		g := graphgen.Load(ds, graphgen.ScaleTiny)
		want := difftest.CCReference(g.Undirected())

		spec, initial := algorithms.CCBulkSpec(g)
		bulk, err := iterative.RunBulk(spec, initial, cfg(4))
		if err != nil {
			t.Fatalf("%s bulk: %v", ds, err)
		}
		assertComponents(t, string(ds)+"/bulk", algorithms.ComponentsToMap(bulk.Solution), want, g.NumVertices)

		incr, ires, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg(4))
		if err != nil {
			t.Fatalf("%s incr: %v", ds, err)
		}
		assertComponents(t, string(ds)+"/incr", incr, want, g.NumVertices)
		if ires.Supersteps < 2 {
			t.Errorf("%s: suspiciously few supersteps (%d)", ds, ires.Supersteps)
		}

		mspec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		micro, err := iterative.RunMicrostep(mspec, s0, w0, cfg(4))
		if err != nil {
			t.Fatalf("%s micro: %v", ds, err)
		}
		assertComponents(t, string(ds)+"/micro", algorithms.ComponentsToMap(micro.Solution), want, g.NumVertices)
	}
}

func TestCCWorksetDecays(t *testing.T) {
	// Figure 2's shape: the per-superstep workset must shrink massively
	// after the first supersteps on a FOAF-like graph.
	g := graphgen.FOAF(graphgen.ScaleTiny)
	var m metrics.Counters
	c := iterative.Config{Parallelism: 2, Metrics: &m, CollectTrace: true}
	_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Iterations) < 3 {
		t.Skipf("graph converged in %d supersteps", len(res.Trace.Iterations))
	}
	first := res.Trace.Iterations[0].Work.WorksetElements
	last := res.Trace.Iterations[len(res.Trace.Iterations)-1].Work.WorksetElements
	if last*10 > first {
		t.Errorf("workset did not decay: first=%d last=%d", first, last)
	}
}

func TestCCIncrementalShipsLessThanBulk(t *testing.T) {
	// §2.3/§6.2: incremental iterations touch only hot state; bulk
	// recomputes everything. Compare total records shipped.
	g := graphgen.FOAF(graphgen.ScaleTiny)

	var mBulk metrics.Counters
	spec, initial := algorithms.CCBulkSpec(g)
	_, err := iterative.RunBulk(spec, initial, iterative.Config{Parallelism: 2, Metrics: &mBulk})
	if err != nil {
		t.Fatal(err)
	}
	var mIncr metrics.Counters
	_, _, err = algorithms.CCIncremental(g, algorithms.CCCoGroup, iterative.Config{Parallelism: 2, Metrics: &mIncr})
	if err != nil {
		t.Fatal(err)
	}
	bulk := mBulk.Snapshot().RecordsShipped
	incr := mIncr.Snapshot().RecordsShipped
	if incr >= bulk {
		t.Errorf("incremental shipped %d records, bulk %d — no sparsity win", incr, bulk)
	}
	t.Logf("records shipped: bulk=%d incremental=%d (%.1fx)", bulk, incr, float64(bulk)/float64(incr))
}

// distances maps an SSSP solution's vertices to their distances.
func distances(recs []record.Record) map[int64]float64 {
	m := make(map[int64]float64, len(recs))
	for _, r := range recs {
		m[r.A] = r.X
	}
	return m
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := graphgen.Uniform("sssp", 150, 600, 17)
	edges := difftest.UnitWeights(g)
	want := difftest.SSSPReference(edges, 0)

	spec, s0, w0 := algorithms.SSSPSpec(edges, 0)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg(3))
	if err != nil {
		t.Fatal(err)
	}
	got := distances(res.Solution)
	if len(got) != len(want) {
		t.Fatalf("reached %d vertices, want %d", len(got), len(want))
	}
	for v, d := range want {
		if math.Abs(got[v]-d) > 1e-9 {
			t.Fatalf("vertex %d: dist %g want %g", v, got[v], d)
		}
	}

	spec, s0, w0 = algorithms.SSSPSpec(edges, 0)
	resM, err := iterative.RunMicrostep(spec, s0, w0, cfg(3))
	if err != nil {
		t.Fatal(err)
	}
	gotM := distances(resM.Solution)
	for v, d := range want {
		if math.Abs(gotM[v]-d) > 1e-9 {
			t.Fatalf("microstep vertex %d: dist %g want %g", v, gotM[v], d)
		}
	}
}

func TestSSSPWeighted(t *testing.T) {
	// Diamond where the long way round is shorter than the direct edge.
	edges := []algorithms.WeightedEdge{
		{Src: 0, Dst: 1, Weight: 10},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 1, Weight: 1},
	}
	spec, s0, w0 := algorithms.SSSPSpec(edges, 0)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	got := distances(res.Solution)
	if got[1] != 3 {
		t.Errorf("dist(1) = %g, want 3 (via 0-2-3-1)", got[1])
	}
}

func TestAdaptivePageRankApproximatesPageRank(t *testing.T) {
	g := graphgen.PreferentialAttachment("apr", 200, 3, 23)
	want := pageRankReference(g, 60, algorithms.DefaultDamping)
	spec, s0, w0 := algorithms.AdaptivePageRankSpec(g, algorithms.DefaultDamping, 1e-9)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	got := algorithms.RanksToMap(res.Solution)
	if res.Supersteps < 3 {
		t.Errorf("adaptive PageRank converged suspiciously fast (%d supersteps)", res.Supersteps)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if math.Abs(got[v]-want[v]) > 1e-4 {
			t.Fatalf("vertex %d: %g vs %g", v, got[v], want[v])
		}
	}
}

func TestTransitionMatrixColumnStochastic(t *testing.T) {
	g := graphgen.Uniform("m", 50, 300, 7)
	recs := algorithms.TransitionMatrixRecords(g)
	sums := make(map[int64]float64)
	for _, r := range recs {
		sums[r.B] += r.X
	}
	for pid, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("column %d sums to %g", pid, s)
		}
	}
}

func TestInitialCandidates(t *testing.T) {
	g := figure1Graph().Undirected()
	w0 := algorithms.InitialCandidateRecords(algorithms.EdgeRecords(g))
	if len(w0) != len(g.Edges) {
		t.Fatalf("w0 size %d, want %d", len(w0), len(g.Edges))
	}
}

func TestPageRankPlanVariantsAgree(t *testing.T) {
	// Figure 4: both forced plans must compute identical ranks; the
	// broadcast variant must actually broadcast the rank vector and the
	// partition variant must not broadcast anything.
	g := graphgen.Uniform("pv", 150, 900, 31)
	bc, bcRes, err := algorithms.PageRankVariant(g, 8, algorithms.PlanBroadcast, cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	pt, ptRes, err := algorithms.PageRankVariant(g, 8, algorithms.PlanPartition, cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if math.Abs(bc[v]-pt[v]) > 1e-9 {
			t.Fatalf("vertex %d: broadcast %g vs partition %g", v, bc[v], pt[v])
		}
	}
	countBroadcasts := func(res *iterative.BulkResult) int {
		n := 0
		for _, pn := range res.Plan.Nodes {
			for _, e := range pn.Inputs {
				if e.Ship.String() == "broadcast" {
					n++
				}
			}
		}
		return n
	}
	if countBroadcasts(bcRes) == 0 {
		t.Error("broadcast variant has no broadcast edge")
	}
	if countBroadcasts(ptRes) != 0 {
		t.Error("partition variant has a broadcast edge")
	}
}
