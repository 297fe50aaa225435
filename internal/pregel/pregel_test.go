package pregel

import (
	"math"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/metrics"
)

func refPageRank(g *graphgen.Graph, iterations int, damping float64) []float64 {
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

func refCC(g *graphgen.Graph) map[int64]int64 {
	parent := make([]int64, g.NumVertices)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(e.Src), find(e.Dst)
		if a != b {
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	out := make(map[int64]int64)
	for i := int64(0); i < g.NumVertices; i++ {
		out[i] = find(i)
	}
	return out
}

func TestPageRankMatchesReference(t *testing.T) {
	for _, par := range []int{1, 4} {
		g := graphgen.Uniform("pr", 120, 900, 13)
		got, res, err := PageRank(g, 12, 0.85, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Supersteps != 13 { // n compute supersteps + final halt pass
			t.Errorf("par=%d: supersteps=%d", par, res.Supersteps)
		}
		want := refPageRank(g, 12, 0.85)
		for v := int64(0); v < g.NumVertices; v++ {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("par=%d vertex %d: %g want %g", par, v, got[v], want[v])
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	for _, par := range []int{1, 3} {
		g := graphgen.Load(graphgen.DSFOAF, graphgen.ScaleTiny)
		want := refCC(g.Undirected())
		got, res, err := ConnectedComponents(g, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if got[v] != want[v] {
				t.Fatalf("par=%d vertex %d: %d want %d", par, v, got[v], want[v])
			}
		}
		if res.Supersteps < 2 {
			t.Errorf("converged suspiciously fast: %d supersteps", res.Supersteps)
		}
	}
}

func TestCCMessagesDecay(t *testing.T) {
	// Pregel exploits sparse dependencies: late supersteps move far fewer
	// messages than early ones (the Giraph curve of Figure 11).
	g := graphgen.FOAF(graphgen.ScaleTiny)
	var m metrics.Counters
	_, res, err := ConnectedComponents(g, Config{Parallelism: 2, Metrics: &m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumIterations() < 3 {
		t.Skip("too few supersteps")
	}
	first := res.Trace.Iterations[1].Work.WorksetElements
	last := res.Trace.Iterations[res.Trace.NumIterations()-1].Work.WorksetElements
	if last > first/2 {
		t.Errorf("messages did not decay: first=%d last=%d", first, last)
	}
}

func TestSSSP(t *testing.T) {
	g := &graphgen.Graph{NumVertices: 4, Edges: []graphgen.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1},
	}}
	weights := func(e graphgen.Edge) float64 {
		if e.Src == 0 && e.Dst == 1 {
			return 10
		}
		return 1
	}
	got, _, err := SSSP(g, weights, 0, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 3 {
		t.Errorf("dist(1) = %g, want 3", got[1])
	}
	if _, reached := got[3]; !reached || got[3] != 2 {
		t.Errorf("dist(3) = %g, want 2", got[3])
	}
}

func TestMessagesCounted(t *testing.T) {
	g := graphgen.Hollywood(graphgen.ScaleTiny)
	var m metrics.Counters
	if _, _, err := ConnectedComponents(g, Config{Parallelism: 2, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.WorksetElements == 0 {
		t.Error("no messages counted")
	}
	if s.RecordsShipped == 0 {
		t.Error("no cross-partition messages counted")
	}
	if s.RecordsShipped > s.WorksetElements {
		t.Error("shipped more messages than were sent")
	}
}

func TestHaltWithoutMessagesTerminates(t *testing.T) {
	g := &graphgen.Graph{NumVertices: 3} // no edges at all
	got, res, err := ConnectedComponents(g, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps > 2 {
		t.Errorf("edgeless graph took %d supersteps", res.Supersteps)
	}
	for v := int64(0); v < 3; v++ {
		if got[v] != v {
			t.Errorf("vertex %d: %d", v, got[v])
		}
	}
}
