package live

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/difftest"
)

// labelScanRegion is the region a CC delete batch was scoped with before
// the graph walk: for every removed edge, each vertex that shares the
// edge source's pre-batch label (pre is the converged labelling the batch
// found), less the vertices the batch left dead. It reads the whole
// labelling once per removal.
func labelScanRegion(pre map[int64]int64, removed []WEdge, gs *GraphState) []int64 {
	in := make(map[int64]bool)
	for _, e := range removed {
		c, ok := pre[e.Src]
		if !ok {
			continue // unknown to the solution: nothing to repair
		}
		for v, l := range pre {
			if l == c && gs.HasVertex(v) {
				in[v] = true
			}
		}
	}
	out := make([]int64, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// randomIslands builds 3-7 components with ids island*100+i: a random
// spanning tree each, a few chords, some edges in both orientations — plus
// a six-vertex chain at 1000 that two removals split three ways.
func randomIslands(rng *rand.Rand) []Mutation {
	var out []Mutation
	islands := 3 + rng.Int63n(5)
	for is := int64(0); is < islands; is++ {
		size := 2 + rng.Int63n(9)
		for i := int64(1); i < size; i++ {
			a, b := is*100+i, is*100+rng.Int63n(i)
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			out = append(out, InsertWeightedEdge(a, b, float64(1+rng.Intn(3))))
			if rng.Intn(4) == 0 {
				out = append(out, InsertWeightedEdge(b, a, float64(1+rng.Intn(3))))
			}
		}
		for range rng.Intn(3) {
			out = append(out, InsertEdge(is*100+rng.Int63n(size), is*100+rng.Int63n(size)))
		}
	}
	for i := int64(1000); i < 1005; i++ {
		out = append(out, InsertEdge(i, i+1))
	}
	return out
}

// randomMixedBatch draws a batch against model, applying each mutation to
// it as drawn: deletes (of one orientation of reciprocal pairs too),
// insert-then-delete and delete-then-reinsert of one edge, re-weights,
// vertex drops (some re-added), the chain's three-way split, and inserts
// that may merge components.
func randomMixedBatch(rng *rand.Rand, model *GraphState) []Mutation {
	var out []Mutation
	add := func(ms ...Mutation) {
		for _, m := range ms {
			model.Apply(m)
		}
		out = append(out, ms...)
	}
	vertex := func() int64 { return model.Vertices()[rng.Intn(model.NumVertices())] }
	for range 1 + rng.Intn(6) {
		if model.NumEdges() == 0 {
			break
		}
		e := model.edges[rng.Intn(model.NumEdges())]
		switch rng.Intn(8) {
		case 0, 1:
			add(DeleteEdge(e.Src, e.Dst))
		case 2:
			a, b := vertex(), vertex()
			if _, ok := model.EdgeWeight(a, b); !ok {
				add(InsertEdge(a, b), DeleteEdge(a, b))
			}
		case 3:
			add(DeleteEdge(e.Src, e.Dst), InsertWeightedEdge(e.Src, e.Dst, e.Weight))
		case 4:
			add(InsertWeightedEdge(e.Src, e.Dst, e.Weight+1))
		case 5:
			add(deleteVertex(e.Src))
			if rng.Intn(2) == 0 {
				add(InsertEdge(e.Src, vertex())) // back, under a new edge
			}
		case 6:
			if model.HasVertex(1001) && model.HasVertex(1004) {
				add(DeleteEdge(1001, 1002), DeleteEdge(1003, 1004))
			}
		default:
			add(InsertEdge(vertex(), vertex()))
		}
	}
	return out
}

// TestDeleteRegionMatchesLabelScan: on random mixed batches over random
// multi-component graphs, the region CC walks from the graph alone never
// exceeds the label scan it replaced, equals it when every removed edge
// existed before the batch, and holds every vertex whose label the
// removals can raise — the ones the monotone insert path cannot repair.
func TestDeleteRegionMatchesLabelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	exact := 0
	for trial := range 400 {
		initial := randomIslands(rng)
		gs, model := NewGraphState(), NewGraphState()
		for _, m := range initial {
			gs.Apply(m)
			model.Apply(m)
		}
		pre := difftest.CCOf(gs.Vertices(), gs.UndirectedRecords())
		batch := randomMixedBatch(rng, model)
		c := &shardCore{m: CC(), gs: gs}
		c.absorb(batch)
		region, ok := c.m.DeleteRegion(gs, c.cut, c.fresh)
		if !ok {
			t.Fatalf("trial %d: CC could not bound the region", trial)
		}
		in := make(map[int64]bool, len(region))
		for _, v := range region {
			if in[v] || !gs.HasVertex(v) {
				t.Fatalf("trial %d: region %v repeats or holds a dead vertex %d", trial, region, v)
			}
			in[v] = true
		}
		scan := labelScanRegion(pre, c.removed, gs)
		for _, v := range region {
			if _, found := slices.BinarySearch(scan, v); !found {
				t.Fatalf("trial %d, batch %v: region has %d, label scan %v", trial, batch, v, scan)
			}
		}
		if len(c.cut) == len(c.removed) {
			exact++
			if len(region) != len(scan) {
				slices.Sort(region)
				t.Fatalf("trial %d, batch %v: region %v, label scan %v", trial, batch, region, scan)
			}
		}

		// Without the batch's insertions, every label the removals moved
		// must be in the region; with them, every label that rose must be.
		minus := NewGraphState()
		for _, v := range gs.Vertices() {
			minus.AddVertex(v)
		}
		for _, e := range gs.edges {
			if !slices.ContainsFunc(c.fresh, func(f WEdge) bool { return f.Src == e.Src && f.Dst == e.Dst }) {
				minus.AddEdge(e.Src, e.Dst, e.Weight)
			}
		}
		post := difftest.CCOf(gs.Vertices(), gs.UndirectedRecords())
		for v, l := range difftest.CCOf(minus.Vertices(), minus.UndirectedRecords()) {
			if was, ok := pre[v]; ok && (l != was || post[v] > was) && !in[v] {
				t.Fatalf("trial %d, batch %v: label of %d moved %d -> %d (%d without the inserts), not in region %v",
					trial, batch, v, was, post[v], l, region)
			}
		}
	}
	if exact == 0 {
		t.Fatal("no batch removed only pre-existing edges")
	}
}

// BenchmarkDeleteRegion scopes an 8-removal batch over 3 000 islands of 20
// vertices: the graph walk against the label scan it replaced, which reads
// the whole labelling once per removal.
func BenchmarkDeleteRegion(b *testing.B) {
	gs := NewGraphState()
	for _, m := range islandEdges(3000, 20, 0) {
		gs.Apply(m)
	}
	pre := difftest.CCOf(gs.Vertices(), gs.UndirectedRecords())
	var removed []WEdge
	for c := int64(0); c < 8; c++ {
		at := 32 * 371 * c
		removed = append(removed, WEdge{Src: at + 3, Dst: at + 4})
		gs.RemoveEdge(at+3, at+4)
	}
	b.Run("walk", func(b *testing.B) {
		for range b.N {
			CC().DeleteRegion(gs, removed, nil)
		}
	})
	b.Run("label-scan", func(b *testing.B) {
		for range b.N {
			labelScanRegion(pre, removed, gs)
		}
	})
}
