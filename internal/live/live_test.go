package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/difftest"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

// assertCC compares the view's snapshot against the union-find oracle
// over the model graph.
func assertCC(t *testing.T, ctx string, v *LiveView, model *GraphState) {
	t.Helper()
	oracle := difftest.CCOf(model.Vertices(), model.UndirectedRecords())
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

// addVertex adds an isolated vertex.
func addVertex(v int64) Mutation { return Mutation{Op: OpAddVertex, Src: v} }

// deleteVertex removes a vertex and its incident edges.
func deleteVertex(v int64) Mutation { return Mutation{Op: OpDeleteVertex, Src: v} }

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
		{addVertex(40), addVertex(41)}, // isolated vertices
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
	if m.MaintenanceSupersteps.Load() < m.WarmRestarts.Load() {
		t.Errorf("%d maintenance supersteps for %d warm restarts, want at least one each",
			m.MaintenanceSupersteps.Load(), m.WarmRestarts.Load())
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

// islandEdges builds n islands of size vertices each — a ring plus one
// chord — the first at vertex base, islands 32 ids apart.
func islandEdges(n, size, base int64) []Mutation {
	var out []Mutation
	for c := int64(0); c < n; c++ {
		at := base + 32*c
		for i := int64(0); i < size; i++ {
			out = append(out, InsertEdge(at+i, at+(i+1)%size))
		}
		out = append(out, InsertEdge(at, at+size/2))
	}
	return out
}

// TestDeleteBatchPatchesConstantPath: a batch that deletes edges folds by
// patching the cached edge table in place, so what it ships is the bounded
// recompute's workset — a refill would ship both orientations of every
// edge again.
func TestDeleteBatchPatchesConstantPath(t *testing.T) {
	var m metrics.Counters
	initial := islandEdges(3000, 20, 0)
	v, err := NewView("cc", CC(), initial, ViewConfig{Config: iterative.Config{Parallelism: 2, Metrics: &m}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	var batch []Mutation
	for c := int64(0); c < 8; c++ {
		at := 32 * 371 * c
		batch = append(batch, DeleteEdge(at+3, at+4))
	}
	shipped, partial := m.RecordsShipped.Load(), m.PartialRecomputes.Load()
	mutateAndModel(t, v, model, batch...)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if d, e := m.RecordsShipped.Load()-shipped, int64(model.NumEdges()); d >= e/10 {
		t.Fatalf("an 8-edge delete batch shipped %d records over a %d-edge graph", d, e)
	}
	if m.PartialRecomputes.Load() != partial+1 {
		t.Fatal("the delete batch did not take the bounded recompute")
	}
	assertCC(t, "after the delete batch", v, model)
}

// TestLiveViewMixedBatch puts inserts and deletes touching the same
// components — and the same vertex pairs — into one batch and across
// folds. The first two batches are the stale-label hazard: an insert's
// candidate labels must not leak pre-delete state. The rest pin the pair
// semantics of the patched edge table: a pair's records stay while either
// orientation lives, leave once, and come back at the next fold after a
// re-insert — each checked by a later batch whose labels must cross (or
// not cross) that pair through the table. Background components make a
// refilled table visible: a refill ships about half the table's two
// records per edge across partitions, a patched batch only its small
// workset. Only a full recompute and a 4x drift rebind re-plan and refill.
func TestLiveViewMixedBatch(t *testing.T) {
	t.Run("cc", func(t *testing.T) {
		// Chain 0-1-2-3 and pair 10-11, beside a 600-vertex star (ids from
		// 1000: more than half the solution, so cutting a leaf recomputes
		// in full) and 100 triangles (ids from 3000).
		initial := []Mutation{
			InsertEdge(0, 1), InsertEdge(1, 2), InsertEdge(2, 3),
			InsertEdge(10, 11),
		}
		for i := int64(1); i < 600; i++ {
			initial = append(initial, InsertEdge(1000, 1000+i))
		}
		initial = append(initial, islandEdges(100, 3, 3000)...)
		var m metrics.Counters
		v, err := NewView("cc", CC(), initial, ViewConfig{Config: iterative.Config{Parallelism: 2, Metrics: &m}})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		model := NewGraphState()
		for _, mu := range initial {
			model.Apply(mu)
		}
		batch := func(ctx string, patched bool, muts ...Mutation) {
			t.Helper()
			shipped := m.RecordsShipped.Load()
			mutateAndModel(t, v, model, muts...)
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			assertCC(t, ctx, v, model)
			if d := m.RecordsShipped.Load() - shipped; patched && d >= int64(model.NumEdges()/4) {
				t.Fatalf("%s: shipped %d records over %d edges: the edge table was refilled", ctx, d, model.NumEdges())
			}
		}

		// Delete 1-2 (chain splits into {0,1} and {2,3}) while inserting
		// 3-10 (joins {2,3} with {10,11}). Stale labels would tag vertex
		// 10's side with component 0.
		batch("mixed batch", true, DeleteEdge(1, 2), InsertEdge(3, 10))
		// An edge inserted and deleted again within one batch never
		// existed: {0,1} and {2,3,10,11} must stay apart.
		batch("insert then delete in one batch", true, InsertEdge(1, 10), DeleteEdge(1, 10))

		// Both orientations of 20-21, folded into the table (an unrelated
		// delete forces the fold), then one deleted: the pair stays in the
		// table, and label 2 must cross it to reach 20.
		batch("reciprocal pair", true, InsertEdge(20, 21), InsertEdge(21, 20), InsertEdge(21, 22), DeleteEdge(3096, 3097))
		batch("delete one orientation", true, DeleteEdge(20, 21))
		batch("cross the surviving orientation", true, InsertEdge(22, 2))

		// Delete then re-insert across folds: the re-insert reaches the
		// table at the next fold (an unrelated delete forces it), and
		// label -1 must then cross it to reach 1.
		batch("delete a pair", true, DeleteEdge(0, 1))
		batch("re-insert it", true, InsertEdge(0, 1))
		batch("fold the re-insert", true, DeleteEdge(3000, 3001))
		batch("cross the re-inserted pair", true, InsertEdge(0, -1))

		// A vertex dropped with reciprocal edges takes each pair out once;
		// back with a smaller label, it must not relabel its old neighbours.
		batch("reciprocal pairs", true, InsertEdge(30, 31), InsertEdge(31, 30), InsertEdge(31, 32), InsertEdge(32, 31),
			DeleteEdge(3128, 3129))
		batch("drop their hub", true, deleteVertex(31))
		batch("re-add the hub", true, InsertEdge(31, 25))

		full := m.FullRecomputes.Load()
		batch("cut a star leaf", false, DeleteEdge(1000, 1001))
		if m.FullRecomputes.Load() != full+1 {
			t.Fatal("cutting the star did not recompute in full")
		}
		batch("patched after the full recompute", true, DeleteEdge(3032, 3033))

		rebinds := v.Stats().Rebinds
		var grow []Mutation
		for i := int64(0); i < int64(8*model.NumEdges()); i += 2 {
			grow = append(grow, InsertEdge(10000+i, 10001+i))
		}
		batch("grow the graph 5x", false, grow...)
		if v.Stats().Rebinds != rebinds+1 {
			t.Fatal("a 5x edge-count drift did not re-plan")
		}
		batch("patched after the rebind", true, DeleteEdge(10000, 10001), InsertEdge(0, 3064))
	})

	t.Run("sssp", func(t *testing.T) {
		// 0 -10- 1 -5- 2 -1- 3, beside an unreachable 20-edge chain that
		// keeps the padding below from drifting the edge count 4x (a
		// re-plan). Each insert is a pair's reverse orientation at a
		// smaller weight, so the pair's table records must move to the new
		// minimum: the second batch's shortcut to 1 reaches 2 only across
		// (1, 2) at 1. Eight unrelated inserts before each one make its
		// batch outgrow the overlay bound, so it folds — and the fold
		// empties the overlay, leaving only the table to cross. A patch
		// leaves the plan's source data as the cold build derived it; a
		// refill would have re-derived it.
		initial := []Mutation{
			InsertWeightedEdge(0, 1, 10), InsertWeightedEdge(1, 2, 5), InsertWeightedEdge(2, 3, 1),
		}
		for at := int64(1000); at < 1020; at++ {
			initial = append(initial, InsertWeightedEdge(at, at+1, 1))
		}
		var m metrics.Counters
		v, err := NewView("sssp", SSSP(0), initial, ViewConfig{Config: iterative.Config{Parallelism: 2, Metrics: &m}})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		src := v.sess.core.sources[0]
		cold := len(src.Data)
		for i, mu := range []Mutation{InsertWeightedEdge(2, 1, 1), InsertWeightedEdge(1, 0, 2)} {
			var pad []Mutation
			for at := int64(100 + 10*i); len(pad) < overlayFoldFactor; at++ {
				pad = append(pad, InsertWeightedEdge(at, at+1, 1))
			}
			if err := v.Mutate(pad...); err != nil {
				t.Fatal(err)
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			folds := v.Stats().Folds
			if err := v.Mutate(mu); err != nil {
				t.Fatal(err)
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			if v.Stats().Folds != folds+1 {
				t.Fatalf("batch %d did not fold", i)
			}
			if len(src.Data) != cold || v.sess.core.sources[0] != src {
				t.Fatalf("batch %d refilled the edge table instead of patching it", i)
			}
			want := [][]float64{{0, 10, 11, 12}, {0, 2, 3, 4}}[i]
			for vid, d := range want {
				if r, ok := v.Query(int64(vid)); !ok || r.X != d {
					t.Fatalf("batch %d: dist(%d) = %v (found %v), want %v", i, vid, r.X, ok, d)
				}
			}
		}
		if n := m.FullRecomputes.Load() + v.Stats().Rebinds; n != 0 {
			t.Fatalf("monotone inserts re-planned %d times", n)
		}
	})
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

	mutateAndModel(t, v, model, deleteVertex(1))
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
		oracle := difftest.SSSPReference(model.WeightedUndirected(), 0)
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
