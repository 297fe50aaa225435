package live

import (
	"math/rand"
	"slices"
	"testing"
)

// TestGraphStateAdjacency drives random inserts, re-weights, edge deletes
// and vertex drops through a GraphState and checks after every operation
// that each vertex's incident edges are exactly what a scan of the whole
// edge list finds — the per-vertex lists survive swap-removes of the edges
// they thread through and the reuse of dropped vertices' slots.
func TestGraphStateAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGraphState()
	cmpEdge := func(x, y WEdge) int {
		if x.Src != y.Src {
			return int(x.Src - y.Src)
		}
		return int(x.Dst - y.Dst)
	}
	for op := 0; op < 3000; op++ {
		a, b := rng.Int63n(40), rng.Int63n(40)
		switch rng.Intn(10) {
		case 0:
			g.RemoveVertex(a)
		case 1, 2, 3:
			g.RemoveEdge(a, b)
		default:
			g.AddEdge(a, b, float64(rng.Intn(3)))
		}
		for v := int64(0); v < 40; v++ {
			var want []WEdge
			for _, e := range g.edges {
				if e.Src == v || e.Dst == v {
					want = append(want, e)
				}
			}
			got := g.IncidentEdges(v)
			slices.SortFunc(got, cmpEdge)
			slices.SortFunc(want, cmpEdge)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: IncidentEdges(%d) = %v, scan finds %v", op, v, got, want)
			}
			if len(got) > 0 && !g.HasVertex(v) {
				t.Fatalf("op %d: dropped vertex %d still has edges", op, v)
			}
		}
	}
}
