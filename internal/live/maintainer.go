package live

import (
	"repro/internal/algorithms"
	"repro/internal/iterative"
	"repro/internal/record"
)

// SolutionReader is read access to the resident solution set, as handed
// to maintainers. During a flush that includes deletions, affected-region
// entries are force-reset before insert deltas are built, so lookups
// never observe stale pre-deletion state.
type SolutionReader interface {
	// Lookup probes the solution by key.
	Lookup(k int64) (record.Record, bool)
}

// Maintainer adapts one incremental fixpoint algorithm to streaming
// maintenance: it builds the Δ spec for the current graph, turns edge
// insertions into monotone workset candidates, and scopes the repair work
// a batch's deletions need from the graph alone.
type Maintainer interface {
	// Name identifies the algorithm ("cc", "sssp") in stats and the HTTP
	// API.
	Name() string
	// Spec assembles the incremental iteration (Δ, S0, W0) for the given
	// graph state. It is re-invoked when the session re-plans or refills
	// its caches; the Source nodes it produces must appear in a
	// deterministic order.
	Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record)
	// PairRecords appends to dst the records one undirected vertex pair
	// contributes to the edge table — the data of Spec's single Source —
	// given the pair's live directed edges (one or both orientations; none
	// contributes nothing). Spec's table is the union over all pairs, which
	// is what lets a fold patch the cached table pair by pair.
	PairRecords(dst []record.Record, pair []WEdge) []record.Record
	// InsertDelta translates the inserted undirected edge (src, dst, w)
	// into workset candidates over the resident solution — the monotone
	// fast path. It must be safe for lookups to miss (new or reset
	// vertices).
	InsertDelta(src, dst int64, w float64, sol SolutionReader) []record.Record
	// VertexRecord is the solution entry a fresh isolated vertex starts
	// with; ok=false if the algorithm keeps no entry for it.
	VertexRecord(v int64) (record.Record, bool)
	// DeleteRegion scopes the repair of a batch that removed edges: the
	// vertices whose entries the removals may have invalidated (bounded
	// recompute), each alive in gs and listed once, or ok=false to demand
	// a full recompute. It reads the graph only, never the solution: gs
	// already reflects the whole batch, removed lists the batch's removals
	// (and re-weights) of edges that existed before it, and inserted the
	// batch's insertions that are live in gs. Every host holds the same
	// replica and batch, so only the coordinator asks, and the region
	// travels to the other hosts.
	DeleteRegion(gs *GraphState, removed, inserted []WEdge) (region []int64, ok bool)
	// RecomputeSeed re-initializes the affected region: resets are
	// force-stored over the resident solution, drops are deleted from it,
	// and seed becomes the workset driving the bounded restart. gs is the
	// post-batch graph.
	RecomputeSeed(gs *GraphState, affected []int64) (resets, seed []record.Record, drops []int64)
}

// --- Connected Components -----------------------------------------------

// ccMaintainer maintains the incremental Connected Components fixpoint of
// Figure 5. Insertions are monotone (component ids only shrink under the
// min-label CPO); a deleted edge can split only the component containing
// it, so the bounded recompute re-labels exactly that component's members
// from identity and re-seeds candidates over its surviving edges.
type ccMaintainer struct{}

// CC returns the Connected Components maintainer.
func CC() Maintainer { return ccMaintainer{} }

func (ccMaintainer) Name() string { return "cc" }

func (ccMaintainer) Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	return algorithms.CCMaintenanceSpec(gs.Vertices(), gs.UndirectedRecords(), algorithms.CCCoGroup)
}

// PairRecords: N holds both orientations of every connected pair.
func (ccMaintainer) PairRecords(dst []record.Record, pair []WEdge) []record.Record {
	if len(pair) == 0 {
		return dst
	}
	a, b := pair[0].Src, pair[0].Dst
	return append(dst, record.Record{A: a, B: b}, record.Record{A: b, B: a})
}

// cid reads a vertex's current component label, defaulting to its own id
// (fresh and reset vertices label themselves).
func cid(x int64, sol SolutionReader) int64 {
	if r, ok := sol.Lookup(x); ok {
		return r.B
	}
	return x
}

func (ccMaintainer) InsertDelta(src, dst int64, _ float64, sol SolutionReader) []record.Record {
	return []record.Record{
		{A: dst, B: cid(src, sol)},
		{A: src, B: cid(dst, sol)},
	}
}

func (ccMaintainer) VertexRecord(v int64) (record.Record, bool) {
	return record.Record{A: v, B: v}, true
}

// DeleteRegion: before the batch, a component was exactly the vertices
// sharing a removed edge's label. The removals split it into pieces, each
// holding an endpoint of a removed edge — the pieces were connected only
// through those — so the region is the union of both endpoints' components
// in the graph without the batch's insertions (whose candidates re-join
// the pieces on the monotone path). One breadth-first walk over the
// adjacency lists finds it, in time linear in the region and its edges.
func (ccMaintainer) DeleteRegion(gs *GraphState, removed, inserted []WEdge) ([]int64, bool) {
	if len(removed) == 0 {
		return nil, true
	}
	skip := make(map[[2]int64]struct{}, len(inserted))
	for _, e := range inserted {
		skip[[2]int64{e.Src, e.Dst}] = struct{}{}
	}
	seen := make(map[int64]struct{})
	var region []int64 // doubles as the walk's queue
	visit := func(v int64) {
		if _, ok := seen[v]; !ok && gs.HasVertex(v) {
			seen[v] = struct{}{}
			region = append(region, v)
		}
	}
	step := func(e WEdge) {
		if _, ok := skip[[2]int64{e.Src, e.Dst}]; !ok {
			visit(e.Src)
			visit(e.Dst)
		}
	}
	for _, e := range removed {
		visit(e.Src)
		visit(e.Dst)
	}
	for i := 0; i < len(region); i++ {
		gs.EachIncident(region[i], step)
	}
	return region, true
}

func (ccMaintainer) RecomputeSeed(gs *GraphState, affected []int64) (resets, seed []record.Record, drops []int64) {
	in := make(map[int64]struct{}, len(affected))
	resets = make([]record.Record, len(affected))
	for i, v := range affected {
		in[v] = struct{}{}
		resets[i] = record.Record{A: v, B: v}
	}
	// Every surviving edge inside the region re-seeds the candidate
	// propagation both ways: each endpoint proposes its reset id to the
	// other. (A reciprocal pair seeds twice; candidates collapse per key.)
	for _, v := range affected {
		gs.EachIncident(v, func(e WEdge) {
			u := e.Dst
			if u == v {
				u = e.Src
			}
			if _, ok := in[u]; ok {
				seed = append(seed, record.Record{A: u, B: v})
			}
		})
	}
	return resets, seed, nil
}

// --- Single-source shortest paths ---------------------------------------

// ssspMaintainer maintains the incremental SSSP fixpoint. Insertions are
// monotone (distances only shrink); a deleted edge can lengthen any path
// that used it, and without shortest-path-tree bookkeeping the affected
// set is unknowable from the solution alone — deletions therefore take
// the full-recompute last resort.
type ssspMaintainer struct {
	source int64
}

// SSSP returns the shortest-paths maintainer rooted at source.
func SSSP(source int64) Maintainer { return ssspMaintainer{source: source} }

func (ssspMaintainer) Name() string { return "sssp" }

func (s ssspMaintainer) Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	return algorithms.SSSPSpec(gs.WeightedUndirected(), s.source)
}

// PairRecords: E holds both orientations of every connected pair at the
// pair's smaller weight.
func (ssspMaintainer) PairRecords(dst []record.Record, pair []WEdge) []record.Record {
	if len(pair) == 0 {
		return dst
	}
	e := pair[0]
	for _, o := range pair[1:] {
		e.Weight = min(e.Weight, o.Weight)
	}
	return append(dst, record.Record{A: e.Src, B: e.Dst, X: e.Weight}, record.Record{A: e.Dst, B: e.Src, X: e.Weight})
}

func (s ssspMaintainer) InsertDelta(src, dst int64, w float64, sol SolutionReader) []record.Record {
	var out []record.Record
	if d, ok := sol.Lookup(src); ok {
		out = append(out, record.Record{A: dst, X: d.X + w})
	}
	if d, ok := sol.Lookup(dst); ok {
		out = append(out, record.Record{A: src, X: d.X + w})
	}
	return out
}

func (ssspMaintainer) VertexRecord(int64) (record.Record, bool) {
	return record.Record{}, false // unreached vertices have no entry
}

func (ssspMaintainer) DeleteRegion(*GraphState, []WEdge, []WEdge) ([]int64, bool) {
	return nil, false
}

func (ssspMaintainer) RecomputeSeed(*GraphState, []int64) ([]record.Record, []record.Record, []int64) {
	return nil, nil, nil
}
