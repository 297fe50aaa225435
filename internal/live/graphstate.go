package live

import (
	"cmp"
	"slices"

	"repro/internal/algorithms"
	"repro/internal/record"
)

// WEdge is one live directed edge with its weight.
type WEdge struct {
	Src, Dst int64
	Weight   float64
}

// GraphState is the mutable graph behind a live view: a set of alive
// vertices plus a directed weighted edge set with O(1) insert/delete.
// Vertex ids need not be dense — deletions leave holes. All methods are
// unsynchronized; LiveView serializes access.
type GraphState struct {
	// verts maps every alive vertex to its slot in heads; slots of removed
	// vertices are reused.
	verts map[int64]int32
	heads [][2]int32 // per slot: first edge of its out-list [0] and in-list [1], -1 if none
	free  []int32
	edges []WEdge
	// links threads each edge onto two doubly linked lists in place — [0]
	// its source's out-list, [1] its destination's in-list — so a vertex's
	// incident edges cost its degree to walk and unlinking costs O(1), with
	// no allocation per vertex.
	links [][2]edgeLink
	index map[[2]int64]int // (src,dst) -> position in edges

	// The sorted vertex list (snapshots and spec derivations read it) is
	// cached: vertsCache is sorted, vertsAdd holds the vertices added since,
	// merged in on the next read; a removal invalidates (vertsOK=false) back
	// to a full rebuild. Every advance allocates a fresh slice, so a list a
	// caller holds is never mutated behind it.
	vertsCache []int64
	vertsAdd   []int64
	vertsOK    bool
}

// edgeLink is an edge's place on one adjacency list (-1: none).
type edgeLink struct{ prev, next int32 }

// end is the endpoint whose list side threads e onto: 0 the source, 1
// the destination.
func (e WEdge) end(side int) int64 {
	if side == 0 {
		return e.Src
	}
	return e.Dst
}

// NewGraphState creates an empty graph.
func NewGraphState() *GraphState {
	return &GraphState{
		verts:   make(map[int64]int32),
		index:   make(map[[2]int64]int),
		vertsOK: true,
	}
}

// Apply routes one mutation into the state (no maintenance bookkeeping)
// — the raw graph operation, used for initial loads and test models.
func (g *GraphState) Apply(m Mutation) {
	switch m.Op {
	case OpInsertEdge:
		g.AddVertex(m.Src)
		g.AddVertex(m.Dst)
		g.AddEdge(m.Src, m.Dst, m.Weight)
	case OpDeleteEdge:
		g.RemoveEdge(m.Src, m.Dst)
	case OpAddVertex:
		g.AddVertex(m.Src)
	case OpDeleteVertex:
		g.RemoveVertex(m.Src)
	}
}

// AddVertex adds v, reporting whether it was new.
func (g *GraphState) AddVertex(v int64) bool {
	if _, ok := g.verts[v]; ok {
		return false
	}
	g.slot(v)
	return true
}

// slot returns v's slot in heads, adding v if it is new.
func (g *GraphState) slot(v int64) int32 {
	if s, ok := g.verts[v]; ok {
		return s
	}
	var s int32
	if n := len(g.free); n > 0 {
		s, g.free = g.free[n-1], g.free[:n-1]
		g.heads[s] = [2]int32{-1, -1}
	} else {
		s = int32(len(g.heads))
		g.heads = append(g.heads, [2]int32{-1, -1})
	}
	g.verts[v] = s
	if g.vertsOK {
		g.vertsAdd = append(g.vertsAdd, v)
	}
	return s
}

// HasVertex reports membership.
func (g *GraphState) HasVertex(v int64) bool {
	_, ok := g.verts[v]
	return ok
}

// AddEdge inserts the directed edge (src, dst, w), reporting whether the
// edge set changed (a fresh edge, or an existing one whose weight moved).
// Self-loops are ignored — the fixpoint algorithms discard them anyway.
func (g *GraphState) AddEdge(src, dst int64, w float64) bool {
	if src == dst {
		return false
	}
	ends := [2]int32{g.slot(src), g.slot(dst)}
	k := [2]int64{src, dst}
	if i, ok := g.index[k]; ok {
		if g.edges[i].Weight == w {
			return false
		}
		g.edges[i].Weight = w
		return true
	}
	i := int32(len(g.edges))
	g.index[k] = int(i)
	g.edges = append(g.edges, WEdge{Src: src, Dst: dst, Weight: w})
	var l [2]edgeLink
	for side, s := range ends {
		head := g.heads[s][side]
		l[side] = edgeLink{prev: -1, next: head}
		if head >= 0 {
			g.links[head][side].prev = i
		}
		g.heads[s][side] = i
	}
	g.links = append(g.links, l)
	return true
}

// EdgeWeight returns the weight of the directed edge (src, dst) and
// whether it exists.
func (g *GraphState) EdgeWeight(src, dst int64) (float64, bool) {
	if i, ok := g.index[[2]int64{src, dst}]; ok {
		return g.edges[i].Weight, true
	}
	return 0, false
}

// RemoveEdge deletes the directed edge (src, dst) by swap-remove,
// returning its weight and whether it existed.
func (g *GraphState) RemoveEdge(src, dst int64) (float64, bool) {
	k := [2]int64{src, dst}
	i, ok := g.index[k]
	if !ok {
		return 0, false
	}
	w := g.edges[i].Weight
	g.relink(i, -1) // off both lists
	last := len(g.edges) - 1
	if i != last {
		moved := g.edges[last]
		g.edges[i], g.links[i] = moved, g.links[last]
		g.relink(i, i) // its neighbours now find it at i
		g.index[[2]int64{moved.Src, moved.Dst}] = i
	}
	g.edges, g.links = g.edges[:last], g.links[:last]
	delete(g.index, k)
	return w, true
}

// relink repoints whatever references edge i's list positions — its
// neighbours on both lists, or its endpoints' heads — at to: -1 unlinks
// edge i, i itself re-anchors an edge just moved into position i.
func (g *GraphState) relink(i, to int) {
	e := g.edges[i]
	for side := range 2 {
		l := g.links[i][side]
		next, prev := l.next, l.prev
		if to >= 0 {
			next, prev = int32(to), int32(to)
		}
		if l.prev >= 0 {
			g.links[l.prev][side].next = next
		} else {
			g.heads[g.verts[e.end(side)]][side] = next
		}
		if l.next >= 0 {
			g.links[l.next][side].prev = prev
		}
	}
}

// EachIncident calls f with every live edge touching v (either endpoint),
// walking v's adjacency lists in place. f must not mutate the graph.
func (g *GraphState) EachIncident(v int64, f func(WEdge)) {
	s, ok := g.verts[v]
	if !ok {
		return
	}
	for side := range 2 {
		for i := g.heads[s][side]; i >= 0; i = g.links[i][side].next {
			f(g.edges[i])
		}
	}
}

// IncidentEdges returns every live edge touching v (either endpoint).
func (g *GraphState) IncidentEdges(v int64) []WEdge {
	var out []WEdge
	g.EachIncident(v, func(e WEdge) { out = append(out, e) })
	return out
}

// RemoveVertex deletes v and all incident edges, returning the removed
// edges.
func (g *GraphState) RemoveVertex(v int64) []WEdge {
	s, ok := g.verts[v]
	if !ok {
		return nil
	}
	removed := g.IncidentEdges(v)
	for _, e := range removed {
		g.RemoveEdge(e.Src, e.Dst)
	}
	delete(g.verts, v)
	g.free = append(g.free, s)
	g.vertsOK = false
	g.vertsCache, g.vertsAdd = nil, nil
	return removed
}

// NumVertices returns the alive vertex count.
func (g *GraphState) NumVertices() int { return len(g.verts) }

// NumEdges returns the live directed edge count.
func (g *GraphState) NumEdges() int { return len(g.edges) }

// Vertices returns the alive vertices in ascending order.
func (g *GraphState) Vertices() []int64 {
	if !g.vertsOK {
		g.vertsCache = make([]int64, 0, len(g.verts))
		for v := range g.verts {
			g.vertsCache = append(g.vertsCache, v)
		}
		slices.Sort(g.vertsCache)
		g.vertsAdd = nil
		g.vertsOK = true
	} else if len(g.vertsAdd) > 0 {
		slices.Sort(g.vertsAdd)
		g.vertsCache = mergeSorted(g.vertsCache, g.vertsAdd)
		g.vertsAdd = nil
	}
	return g.vertsCache
}

// mergeSorted merges two sorted disjoint vertex lists into a fresh one.
func mergeSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// UndirectedRecords symmetrizes the edge set into deduplicated edge
// records (A=src, B=dst, both orientations), the neighborhood table N of
// the Connected Components dataflow. Order is deterministic: edges sort
// by (A, B).
func (g *GraphState) UndirectedRecords() []record.Record {
	out := make([]record.Record, 0, 2*len(g.edges))
	for _, e := range g.edges {
		out = append(out, record.Record{A: e.Src, B: e.Dst}, record.Record{A: e.Dst, B: e.Src})
	}
	slices.SortFunc(out, func(x, y record.Record) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return slices.Compact(out)
}

// WeightedUndirected symmetrizes the edge set into weighted edges (both
// orientations), sorted by (Src, Dst). When both orientations carry
// different weights, the smaller weight wins deterministically.
func (g *GraphState) WeightedUndirected() []algorithms.WeightedEdge {
	out := make([]algorithms.WeightedEdge, 0, 2*len(g.edges))
	for _, e := range g.edges {
		out = append(out,
			algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight},
			algorithms.WeightedEdge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	pair := func(x, y algorithms.WeightedEdge) int {
		if c := cmp.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return cmp.Compare(x.Dst, y.Dst)
	}
	slices.SortFunc(out, func(x, y algorithms.WeightedEdge) int {
		if c := pair(x, y); c != 0 {
			return c
		}
		return cmp.Compare(x.Weight, y.Weight)
	})
	return slices.CompactFunc(out, func(x, y algorithms.WeightedEdge) bool { return pair(x, y) == 0 })
}
