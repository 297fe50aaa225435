package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

// ccOracle computes the min-label component assignment over the model
// graph with union-find (the same invariant the fixpoint maintains).
func ccOracle(gs *GraphState) map[int64]int64 {
	parent := make(map[int64]int64)
	for _, v := range gs.Vertices() {
		parent[v] = v
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range gs.UndirectedRecords() {
		a, b := find(e.A), find(e.B)
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	out := make(map[int64]int64, len(parent))
	for v := range parent {
		out[v] = find(v)
	}
	return out
}

// assertCC compares the view's snapshot against the union-find oracle
// over the model graph.
func assertCC(t *testing.T, ctx string, v *LiveView, model *GraphState) {
	t.Helper()
	oracle := ccOracle(model)
	got := algorithms.ComponentsToMap(v.Snapshot())
	if len(got) != len(oracle) {
		t.Fatalf("%s: %d solution records, oracle has %d", ctx, len(got), len(oracle))
	}
	for vid, c := range oracle {
		if got[vid] != c {
			t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, vid, got[vid], c)
		}
	}
}

// mutateAndModel pushes mutations through the view and mirrors them into
// the model graph.
func mutateAndModel(t *testing.T, v *LiveView, model *GraphState, muts ...Mutation) {
	t.Helper()
	for _, m := range muts {
		model.Apply(m)
	}
	if err := v.Mutate(muts...); err != nil {
		t.Fatal(err)
	}
}

// ringEdges builds a ring over n vertices.
func ringEdges(n int64) []Mutation {
	out := make([]Mutation, n)
	for i := int64(0); i < n; i++ {
		out[i] = InsertEdge(i, (i+1)%n)
	}
	return out
}

// TestLiveViewInsertOnlyNeverRecomputes streams edge inserts through a CC
// view and checks the satellite invariant: the monotone fast path absorbs
// every batch with zero partial and zero full recomputes, and the result
// tracks the union-find oracle after every flush.
func TestLiveViewInsertOnlyNeverRecomputes(t *testing.T) {
	var m metrics.Counters
	initial := ringEdges(10) // vertices 0..9
	v, err := NewView("cc", CC(), initial, ViewConfig{
		Config: iterative.Config{Parallelism: 4, Metrics: &m}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	assertCC(t, "cold", v, model)

	// Batches that add fresh components, grow them, and merge them into
	// the ring.
	batches := [][]Mutation{
		{InsertEdge(20, 21), InsertEdge(21, 22), InsertEdge(22, 23)},
		{InsertEdge(30, 31), InsertEdge(31, 32)},
		{InsertEdge(23, 30)},           // merge the two fresh components
		{InsertEdge(5, 20)},            // merge into the ring
		{AddVertex(40), AddVertex(41)}, // isolated vertices
		{InsertEdge(40, 41), InsertEdge(41, 0)},
	}
	for i, b := range batches {
		mutateAndModel(t, v, model, b...)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		assertCC(t, "batch", v, model)
		_ = i
	}
	if got := m.PartialRecomputes.Load(); got != 0 {
		t.Errorf("insert-only stream triggered %d partial recomputes", got)
	}
	if got := m.FullRecomputes.Load(); got != 0 {
		t.Errorf("insert-only stream triggered %d full recomputes", got)
	}
	if m.WarmRestarts.Load() == 0 {
		t.Error("no warm restarts recorded")
	}
	// Initial mutations are a cold load, not deltas; only the 6 batches'
	// 11 mutations count.
	var total int64
	for _, b := range batches {
		total += int64(len(b))
	}
	if m.DeltasApplied.Load() != total {
		t.Errorf("DeltasApplied = %d, want %d", m.DeltasApplied.Load(), total)
	}
}

// TestLiveViewDeletionsBoundedRecompute deletes a bridge edge (splitting
// a component) and an in-component chord (no split): both must repair via
// bounded recompute, never a full one, and track the oracle.
func TestLiveViewDeletionsBoundedRecompute(t *testing.T) {
	var m metrics.Counters
	// Two triangles joined by a bridge, plus a far-away component that
	// must never be touched: {0,1,2}-3-{4,5,6}, {100..102}.
	initial := []Mutation{
		InsertEdge(0, 1), InsertEdge(1, 2), InsertEdge(2, 0),
		InsertEdge(2, 3), InsertEdge(3, 4),
		InsertEdge(4, 5), InsertEdge(5, 6), InsertEdge(6, 4),
		InsertEdge(100, 101), InsertEdge(101, 102),
	}
	v, err := NewView("cc", CC(), initial, ViewConfig{
		Config:            iterative.Config{Parallelism: 2, Metrics: &m},
		RecomputeFraction: 1.0, // always bounded while the region fits the set
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}

	// Chord delete: {0,1,2} stays one component.
	mutateAndModel(t, v, model, DeleteEdge(2, 0))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCC(t, "chord delete", v, model)

	// Bridge delete: the big component splits in two.
	mutateAndModel(t, v, model, DeleteEdge(3, 4))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCC(t, "bridge delete", v, model)

	if m.PartialRecomputes.Load() == 0 {
		t.Error("deletions did not use bounded recompute")
	}
	if m.FullRecomputes.Load() != 0 {
		t.Errorf("bounded deletions fell back to %d full recomputes", m.FullRecomputes.Load())
	}
}

// TestLiveViewMixedBatch puts an insert that bridges two components and a
// delete that splits one of them into the SAME batch — the stale-label
// hazard: the insert's candidate labels must not leak pre-delete state.
func TestLiveViewMixedBatch(t *testing.T) {
	// Chain 0-1-2-3 and pair 10-11.
	initial := []Mutation{
		InsertEdge(0, 1), InsertEdge(1, 2), InsertEdge(2, 3),
		InsertEdge(10, 11),
	}
	v, err := NewView("cc", CC(), initial, ViewConfig{
		Config:            iterative.Config{Parallelism: 2},
		RecomputeFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}

	// Delete 1-2 (chain splits into {0,1} and {2,3}) while inserting
	// 3-10 (joins {2,3} with {10,11}). Stale labels would tag vertex 10's
	// side with component 0.
	mutateAndModel(t, v, model, DeleteEdge(1, 2), InsertEdge(3, 10))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCC(t, "mixed batch", v, model)

	// An edge inserted and deleted again within one batch never existed:
	// {0,1} and {2,3,10,11} must stay apart.
	mutateAndModel(t, v, model, InsertEdge(1, 10), DeleteEdge(1, 10))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCC(t, "insert then delete in one batch", v, model)
}

// TestLiveViewVertexDelete removes a cut vertex, which both drops its
// solution entry and splits its component.
func TestLiveViewVertexDelete(t *testing.T) {
	initial := []Mutation{
		InsertEdge(0, 1), InsertEdge(1, 2), // 1 is the cut vertex
		InsertEdge(5, 6),
	}
	v, err := NewView("cc", CC(), initial, ViewConfig{
		Config:            iterative.Config{Parallelism: 2},
		RecomputeFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}

	mutateAndModel(t, v, model, DeleteVertex(1))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	assertCC(t, "vertex delete", v, model)
	if _, found := v.Query(1); found {
		t.Error("deleted vertex still has a solution entry")
	}
}

// TestLiveViewSSSP streams inserts (monotone) and then a deletion (full
// recompute) through an SSSP view, comparing against Dijkstra each time.
func TestLiveViewSSSP(t *testing.T) {
	var m metrics.Counters
	initial := []Mutation{
		InsertWeightedEdge(0, 1, 2), InsertWeightedEdge(1, 2, 2),
		InsertWeightedEdge(0, 3, 7), InsertWeightedEdge(3, 4, 1),
	}
	v, err := NewView("sssp", SSSP(0), initial, ViewConfig{
		Config: iterative.Config{Parallelism: 2, Metrics: &m}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	check := func(ctx string) {
		t.Helper()
		oracle := algorithms.SSSPReference(model.WeightedUndirected(), 0)
		got := make(map[int64]float64)
		for _, r := range v.Snapshot() {
			got[r.A] = r.X
		}
		if len(got) != len(oracle) {
			t.Fatalf("%s: reached %d vertices, oracle %d (got %v, oracle %v)", ctx, len(got), len(oracle), got, oracle)
		}
		for vid, d := range oracle {
			if got[vid] != d {
				t.Fatalf("%s: dist(%d) = %v, oracle %v", ctx, vid, got[vid], d)
			}
		}
	}
	check("cold")

	// Monotone insert: shortcut 2-3 shortens 3 and 4.
	mutateAndModel(t, v, model, InsertWeightedEdge(2, 3, 1))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	check("insert")
	if m.FullRecomputes.Load() != 0 {
		t.Errorf("insert triggered %d full recomputes", m.FullRecomputes.Load())
	}

	// Deletion: distances can only grow; SSSP takes the full-recompute
	// last resort.
	mutateAndModel(t, v, model, DeleteEdge(2, 3))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	check("delete")
	if m.FullRecomputes.Load() == 0 {
		t.Error("SSSP deletion did not full-recompute")
	}

	// Deleting 0-3 and 3-4 makes 4 unreachable: its entry must vanish.
	mutateAndModel(t, v, model, DeleteEdge(0, 3), DeleteEdge(3, 4))
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	check("unreachable")
}

// TestLiveViewSSSPReweight increases an existing edge's weight: not
// monotone, so the view must repair like a deletion (full recompute for
// SSSP) rather than leave the stale shorter distance resident.
func TestLiveViewSSSPReweight(t *testing.T) {
	var m metrics.Counters
	initial := []Mutation{
		InsertWeightedEdge(0, 1, 1), InsertWeightedEdge(1, 2, 1),
		InsertWeightedEdge(0, 2, 5),
	}
	v, err := NewView("sssp", SSSP(0), initial, ViewConfig{
		Config: iterative.Config{Parallelism: 2, Metrics: &m}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if r, _ := v.Query(2); r.X != 2 {
		t.Fatalf("cold dist(2) = %v, want 2", r.X)
	}

	// Re-weight 1-2 from 1 to 10: dist(2) must grow to 5 (via 0-2).
	if err := v.Mutate(InsertWeightedEdge(1, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, _ := v.Query(2); r.X != 5 {
		t.Fatalf("post-reweight dist(2) = %v, want 5", r.X)
	}
	if m.FullRecomputes.Load() == 0 {
		t.Error("weight increase did not trigger the deletion-style repair")
	}

	// A weight decrease is monotone again after repair: 0-2 down to 1.
	if err := v.Mutate(InsertWeightedEdge(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, _ := v.Query(2); r.X != 1 {
		t.Fatalf("post-decrease dist(2) = %v, want 1", r.X)
	}
}

// TestLiveViewBatchSizeAutoFlush checks that the BatchSize threshold
// flushes without an explicit Flush call.
func TestLiveViewBatchSizeAutoFlush(t *testing.T) {
	v, err := NewView("cc", CC(), ringEdges(6), ViewConfig{
		Config:    iterative.Config{Parallelism: 1},
		BatchSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Mutate(InsertEdge(20, 21), InsertEdge(21, 22)); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Flushes != 0 || st.MutationsPending != 2 {
		t.Fatalf("premature flush: %+v", st)
	}
	if err := v.Mutate(InsertEdge(22, 20)); err != nil { // hits BatchSize
		t.Fatal(err)
	}
	st := v.Stats()
	if st.Flushes != 1 || st.MutationsPending != 0 {
		t.Fatalf("BatchSize did not flush: %+v", st)
	}
	if r, ok := v.Query(22); !ok || r.B != 20 {
		t.Fatalf("Query(22) = %v,%v, want component 20", r, ok)
	}
}

// TestLiveViewFlushIntervalTimer checks the staleness bound: a lone
// mutation flushes by itself once FlushInterval elapses.
func TestLiveViewFlushIntervalTimer(t *testing.T) {
	v, err := NewView("cc", CC(), ringEdges(4), ViewConfig{
		Config:        iterative.Config{Parallelism: 1},
		BatchSize:     1000,
		FlushInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Mutate(InsertEdge(9, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, ok := v.Query(9); ok && r.B == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer flush never applied the mutation")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveViewConcurrentQueries hammers Query/Snapshot from readers while
// a writer streams mutation batches — the per-view serialization plus
// shared read lock must keep this race-clean and the reads must only ever
// observe converged states (every queried component id refers to a
// vertex that exists).
func TestLiveViewConcurrentQueries(t *testing.T) {
	v, err := NewView("cc", CC(), ringEdges(32), ViewConfig{
		Config: iterative.Config{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec, ok := v.Query(5); ok && rec.B < 0 {
					t.Error("negative component id")
					return
				}
				_ = v.Snapshot()
			}
		}()
	}
	for i := int64(0); i < 20; i++ {
		if err := v.Mutate(InsertEdge(100+i, 101+i)); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLiveViewAcrossBackends repeats an insert+delete stream over every
// solution backend; results must be identical.
func TestLiveViewAcrossBackends(t *testing.T) {
	backends := []struct {
		name string
		cfg  func(iterative.Config) iterative.Config
	}{
		{"map", func(c iterative.Config) iterative.Config { c.SolutionBackend = runtime.SolutionMap; return c }},
		{"compact", func(c iterative.Config) iterative.Config { c.SolutionBackend = runtime.SolutionCompact; return c }},
		{"spill", func(c iterative.Config) iterative.Config { c.SolutionMemoryBudget = 8 * record.EncodedSize; return c }},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			v, err := NewView("cc", CC(), ringEdges(12), ViewConfig{
				Config:            bk.cfg(iterative.Config{Parallelism: 4}),
				RecomputeFraction: 1.0,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			model := NewGraphState()
			for _, mu := range ringEdges(12) {
				model.Apply(mu)
			}
			mutateAndModel(t, v, model,
				InsertEdge(20, 21), DeleteEdge(3, 4), InsertEdge(21, 5), DeleteEdge(8, 9))
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			assertCC(t, bk.name, v, model)
		})
	}
}

// TestViewConfigValidate rejects the nonsense configurations the defaults
// would otherwise silently absorb.
func TestViewConfigValidate(t *testing.T) {
	bad := []ViewConfig{
		{BatchSize: -1},
		{FlushInterval: -time.Second},
		{RecomputeFraction: 1.5},
		{Config: iterative.Config{SolutionMemoryBudget: -5}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewView("bad", CC(), nil, ViewConfig{BatchSize: -2}); err == nil {
		t.Error("NewView accepted invalid config")
	}
}

// TestLiveViewClosedRejectsMutations checks Close semantics.
func TestLiveViewClosedRejectsMutations(t *testing.T) {
	v, err := NewView("cc", CC(), ringEdges(4), ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(9, 10)); err == nil {
		t.Error("closed view accepted a mutation")
	}
}
