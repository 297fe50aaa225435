package algorithms

import (
	"math"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/optimizer"
)

func cfg(par int) iterative.Config {
	return iterative.Config{Parallelism: par}
}

// centroids decodes a K-Means solution into centroids by id.
func centroids(res *iterative.BulkResult) map[int64]Point {
	out := make(map[int64]Point, len(res.Solution))
	for _, r := range res.Solution {
		out[r.A] = unpackPoint(r)
	}
	return out
}

// regressionWeights decodes a BGD solution into its weight vector.
func regressionWeights(res *iterative.BulkResult, dims int) []float64 {
	out := make([]float64, dims)
	for _, r := range res.Solution {
		if int(r.A) < dims {
			out[r.A] = r.X
		}
	}
	return out
}

// closure runs TCSpec on g and decodes the reach(x, y) facts.
func closure(t *testing.T, g *graphgen.Graph, par int) (map[[2]int64]bool, *iterative.IncrementalResult) {
	t.Helper()
	spec, s0, w0 := TCSpec(g)
	res, err := iterative.RunIncremental(spec, s0, w0, cfg(par))
	if err != nil {
		t.Fatal(err)
	}
	stride := g.NumVertices
	out := make(map[[2]int64]bool, len(res.Solution))
	for _, r := range res.Solution {
		x := r.B
		y := r.A - x*stride
		out[[2]int64{x, y}] = true
	}
	return out, res
}

func TestKMeansMatchesLloyd(t *testing.T) {
	centers := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}
	points := GeneratePoints(centers, 60, 1.5, 77)
	initial := []Point{{X: 1, Y: 1}, {X: 9, Y: 1}, {X: 1, Y: 9}}

	for _, par := range []int{1, 4} {
		spec, init := KMeansSpec(points, initial, 10)
		res, err := iterative.RunBulk(spec, init, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		got := centroids(res)
		if res.Iterations != 10 {
			t.Errorf("iterations = %d", res.Iterations)
		}
		want := KMeansReference(points, initial, 10)
		for c := range want {
			g := got[int64(c)]
			if math.Abs(g.X-want[c].X) > 1e-9 || math.Abs(g.Y-want[c].Y) > 1e-9 {
				t.Fatalf("par=%d centroid %d: (%g,%g) want (%g,%g)",
					par, c, g.X, g.Y, want[c].X, want[c].Y)
			}
		}
		// Converged centroids must sit near the true cluster centers.
		for c, truth := range centers {
			g := got[int64(c)]
			if math.Hypot(g.X-truth.X, g.Y-truth.Y) > 1.0 {
				t.Errorf("centroid %d far from truth: (%g,%g) vs (%g,%g)",
					c, g.X, g.Y, truth.X, truth.Y)
			}
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	points := []Point{{X: 1, Y: 1}, {X: 3, Y: 3}}
	spec, init := KMeansSpec(points, []Point{{X: 0, Y: 0}}, 3)
	res, err := iterative.RunBulk(spec, init, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	got := centroids(res)
	if math.Abs(got[0].X-2) > 1e-9 || math.Abs(got[0].Y-2) > 1e-9 {
		t.Errorf("single-cluster mean wrong: %+v", got[0])
	}
}

func TestPointPackingRoundTrip(t *testing.T) {
	p := Point{X: -3.25, Y: 1e-300}
	if got := unpackPoint(packPoint(7, p)); got != p {
		t.Errorf("pack/unpack lost precision: %+v", got)
	}
}

// syntheticRegression builds y = 2 + 3*x1 - 0.5*x2 examples with a bias
// column.
func syntheticRegression(n int) []Example {
	truth := []float64{2, 3, -0.5}
	s := uint64(99)
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64((s*0x2545f4914f6cdd1d)>>11) / float64(1<<53)
	}
	out := make([]Example, n)
	for i := range out {
		x1, x2 := next(), next()
		out[i] = Example{
			Features: []float64{1, x1, x2},
			Label:    truth[0] + truth[1]*x1 + truth[2]*x2,
		}
	}
	return out
}

func TestBGDMatchesReference(t *testing.T) {
	examples := syntheticRegression(200)
	for _, par := range []int{1, 3} {
		spec, init := BGDSpec(examples, 3, 0.5, 50)
		res, err := iterative.RunBulk(spec, init, cfg(par))
		if err != nil {
			t.Fatal(err)
		}
		got := regressionWeights(res, 3)
		if res.Iterations != 50 {
			t.Errorf("iterations = %d", res.Iterations)
		}
		want := BGDReference(examples, 3, 0.5, 50)
		for d := range want {
			if math.Abs(got[d]-want[d]) > 1e-9 {
				t.Fatalf("par=%d dim %d: %g want %g", par, d, got[d], want[d])
			}
		}
	}
}

// TestBGDCombinersFuse: BGD's predict and gradient reduces are both
// combinable, so its fused plan runs every combiner the planner chose
// absorbed into its producer, and none as a task of its own; with fusion
// disabled they stay tasks.
func TestBGDCombinersFuse(t *testing.T) {
	examples := make([]Example, 40)
	for i := range examples {
		examples[i] = Example{Features: []float64{1, float64(i % 5), float64(i % 3)}, Label: float64(i % 2)}
	}
	for _, disable := range []bool{false, true} {
		spec, init := BGDSpec(examples, 3, 0.5, 2)
		res, err := iterative.RunBulk(spec, init, iterative.Config{Parallelism: 2, DisableFusion: disable})
		if err != nil {
			t.Fatal(err)
		}
		standalone, absorbed := 0, 0
		for _, n := range res.Plan.Nodes {
			if n.Role == optimizer.RoleCombiner {
				standalone++
			}
			if n.Combiner != nil {
				absorbed++
			}
		}
		if got := standalone + absorbed; got > 2 {
			t.Fatalf("%d combiners for 2 combinable reduces:\n%s", got, res.Plan.Explain())
		}
		if !disable && standalone != 0 {
			t.Errorf("%d combiner tasks left in the fused plan:\n%s", standalone, res.Plan.Explain())
		}
		if disable && absorbed != 0 {
			t.Errorf("combiner absorbed with fusion disabled:\n%s", res.Plan.Explain())
		}
	}
}

func TestBGDConvergesTowardsTruth(t *testing.T) {
	examples := syntheticRegression(300)
	spec, init := BGDSpec(examples, 3, 0.8, 800)
	res, err := iterative.RunBulk(spec, init, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	got := regressionWeights(res, 3)
	truth := []float64{2, 3, -0.5}
	for d := range truth {
		if math.Abs(got[d]-truth[d]) > 0.15 {
			t.Errorf("dim %d: learned %g, truth %g", d, got[d], truth[d])
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	// A chain plus a disconnected pair.
	g := &graphgen.Graph{NumVertices: 6, Edges: []graphgen.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5},
	}}
	got, res := closure(t, g, 2)
	want := TransitiveClosureReference(g)
	if len(got) != len(want) {
		t.Fatalf("closure size %d, want %d", len(got), len(want))
	}
	for pair := range want {
		if !got[pair] {
			t.Errorf("missing fact reach(%d,%d)", pair[0], pair[1])
		}
	}
	// The chain forces one superstep per extra hop (semi-naïve rounds).
	if res.Supersteps < 3 {
		t.Errorf("supersteps = %d, want >= 3", res.Supersteps)
	}
}

func TestTransitiveClosureOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := graphgen.Uniform("tc", 30, 60, seed)
		got, _ := closure(t, g, 3)
		want := TransitiveClosureReference(g)
		if len(got) != len(want) {
			t.Fatalf("seed %d: closure size %d, want %d", seed, len(got), len(want))
		}
		for pair := range got {
			if !want[pair] {
				t.Fatalf("seed %d: spurious fact %v", seed, pair)
			}
		}
	}
}

func TestTransitiveClosureWithCycle(t *testing.T) {
	// Cycles must terminate (the novelty check suppresses re-derivation).
	g := &graphgen.Graph{NumVertices: 3, Edges: []graphgen.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	}}
	got, _ := closure(t, g, 2)
	if len(got) != 9 { // every vertex reaches every vertex incl. itself
		t.Fatalf("cycle closure size %d, want 9", len(got))
	}
}
