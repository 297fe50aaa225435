package graphgen

import (
	"testing"
	"testing/quick"
)

func TestUniformProperties(t *testing.T) {
	g := Uniform("u", 100, 500, 1)
	if g.NumVertices != 100 || g.NumEdges() != 500 {
		t.Fatalf("got V=%d E=%d", g.NumVertices, g.NumEdges())
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("self loop emitted")
		}
		if e.Src < 0 || e.Src >= 100 || e.Dst < 0 || e.Dst >= 100 {
			t.Fatalf("edge out of range: %+v", e)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMAT("a", 8, 1000, 0.57, 0.19, 0.19, 5)
	b := RMAT("b", 8, 1000, 0.57, 0.19, 0.19, 5)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("RMAT not deterministic in edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("RMAT not deterministic at edge %d", i)
		}
	}
	p1 := PreferentialAttachment("p", 200, 3, 9)
	p2 := PreferentialAttachment("p", 200, 3, 9)
	for i := range p1.Edges {
		if p1.Edges[i] != p2.Edges[i] {
			t.Fatalf("PA not deterministic at edge %d", i)
		}
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT("s", 10, 10000, 0.57, 0.19, 0.19, 3)
	deg := make([]int64, g.NumVertices)
	var maxDeg int64
	for _, e := range g.Edges {
		deg[e.Src]++
		maxDeg = max(maxDeg, deg[e.Src])
	}
	if maxDeg < 5*int64(g.AvgDegree()) {
		t.Errorf("RMAT should be skewed: max=%d mean=%.1f", maxDeg, g.AvgDegree())
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	g := Uniform("u", 50, 200, 2).Undirected()
	set := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("undirected graph contains self loop")
		}
		if set[e] {
			t.Fatalf("duplicate edge %+v", e)
		}
		set[e] = true
	}
	for _, e := range g.Edges {
		if !set[Edge{Src: e.Dst, Dst: e.Src}] {
			t.Fatalf("missing reverse edge for %+v", e)
		}
	}
}

func TestUndirectedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Uniform("u", 30, 100, seed).Undirected()
		set := make(map[Edge]bool, len(g.Edges))
		for _, e := range g.Edges {
			set[e] = true
		}
		for _, e := range g.Edges {
			if !set[Edge{Src: e.Dst, Dst: e.Src}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAdjacencyMatchesEdges(t *testing.T) {
	g := Uniform("u", 40, 160, 3)
	adj := adjacency(g)
	count := 0
	for _, ns := range adj {
		count += len(ns)
	}
	if int64(count) != g.NumEdges() {
		t.Fatalf("adjacency has %d entries, want %d", count, g.NumEdges())
	}
}

func TestChainedCommunitiesConnectedAndDeep(t *testing.T) {
	g := ChainedCommunities("c", 10, 16, 8, 1)
	und := g.Undirected()
	// BFS from vertex 0 must reach every vertex (one giant component) and
	// the eccentricity must be at least the number of communities (long
	// chain => big diameter).
	adj := adjacency(und)
	dist := make([]int, und.NumVertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int64{0}
	maxd := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, n := range adj[v] {
			if dist[n] == -1 {
				dist[n] = dist[v] + 1
				if dist[n] > maxd {
					maxd = dist[n]
				}
				queue = append(queue, n)
			}
		}
	}
	for v, d := range dist {
		if d == -1 {
			t.Fatalf("vertex %d unreachable: chain broken", v)
		}
	}
	if maxd < 10 {
		t.Errorf("eccentricity %d too small for a 10-community chain", maxd)
	}
}

func TestFringeAddsComponents(t *testing.T) {
	g := Uniform("u", 20, 100, 4).WithIsolatedFringe(5, 4, 5)
	if g.NumVertices != 20+5*4 {
		t.Fatalf("fringe vertices wrong: %d", g.NumVertices)
	}
}

func TestDatasetRegistry(t *testing.T) {
	for _, d := range append(AllTable2(), DSFOAF) {
		g := Load(d, ScaleTiny)
		if g == nil || g.NumVertices == 0 || g.NumEdges() == 0 {
			t.Fatalf("dataset %s empty", d)
		}
	}
	if Load("nope", ScaleTiny) != nil {
		t.Error("unknown dataset should return nil")
	}
}

func TestTable2Shapes(t *testing.T) {
	// The relative density ordering of the paper's Table 2 must hold:
	// hollywood ≫ twitter > webbase ≈ wikipedia.
	wiki := Wikipedia(ScaleTiny)
	holly := Hollywood(ScaleTiny)
	twitter := Twitter(ScaleTiny)
	if holly.AvgDegree() < 1.5*twitter.AvgDegree() {
		t.Errorf("hollywood (%.1f) should be much denser than twitter (%.1f)",
			holly.AvgDegree(), twitter.AvgDegree())
	}
	if twitter.AvgDegree() < wiki.AvgDegree() {
		t.Errorf("twitter (%.1f) should be denser than wikipedia (%.1f)",
			twitter.AvgDegree(), wiki.AvgDegree())
	}
}

func TestPreferentialAttachmentConnected(t *testing.T) {
	g := PreferentialAttachment("p", 500, 2, 11).Undirected()
	adj := adjacency(g)
	seen := make([]bool, g.NumVertices)
	seen[0] = true
	queue := []int64{0}
	n := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range adj[v] {
			if !seen[nb] {
				seen[nb] = true
				n++
				queue = append(queue, nb)
			}
		}
	}
	if int64(n) != g.NumVertices {
		t.Errorf("PA graph should be connected: reached %d of %d", n, g.NumVertices)
	}
}

func TestScaleClampsSmall(t *testing.T) {
	if Scale(0.0001).apply(100) < 8 {
		t.Error("scale should clamp to a minimum")
	}
}

func TestGraphString(t *testing.T) {
	g := Uniform("u", 10, 20, 1)
	if g.String() == "" {
		t.Error("empty String()")
	}
}

// adjacency builds a neighborhood index N: vertex -> neighbors, over the
// edges as given (callers wanting undirected semantics should call
// Undirected first).
func adjacency(g *Graph) [][]int64 {
	adj := make([][]int64, g.NumVertices)
	deg := make([]int32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	for v := range adj {
		adj[v] = make([]int64, 0, deg[v])
	}
	for _, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	return adj
}
