package iterative_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

// rmatCC is incremental CC over a dense R-MAT core with a short tail — the
// shape of the benchmark's cc-powerlaw workload, scaled down: a few heavy
// supersteps, then a tail of tiny worksets in which the driver re-plans
// repeatedly.
func rmatCC(reoptimize bool) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	g := graphgen.RMAT("rmat", 10, 40_000, 0.57, 0.19, 0.19, 3).WithDiameterTail(12, 0)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Reoptimize = reoptimize
	return spec, s0, w0
}

// TestReoptimizeKeepsConstantPathWarm: with Reoptimize on, the constant
// data path (the edge table) is rebuilt once, in the superstep after the
// one re-plan that changes the plan's shape. Every later superstep — the
// same-shape re-plans included — ships at most its own workset, and the
// fixpoint and superstep count equal a run without re-optimization.
func TestReoptimizeKeepsConstantPathWarm(t *testing.T) {
	run := func(reoptimize bool) *iterative.IncrementalResult {
		spec, s0, w0 := rmatCC(reoptimize)
		var m metrics.Counters
		res, err := iterative.RunIncremental(spec, s0, w0,
			iterative.Config{Parallelism: 2, Metrics: &m, CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(res.Solution, func(a, b int) bool { return record.Less(res.Solution[a], res.Solution[b]) })
		return res
	}
	plain, reopt := run(false), run(true)
	if reopt.Supersteps != plain.Supersteps {
		t.Errorf("supersteps: %d with Reoptimize, %d without", reopt.Supersteps, plain.Supersteps)
	}
	if !reflect.DeepEqual(reopt.Solution, plain.Solution) {
		t.Error("Reoptimize changed the fixpoint")
	}

	swapAt, kept := -1, 0
	for _, ev := range reopt.Trace.Events {
		switch {
		case strings.Contains(ev.Event, "reoptimized"):
			if swapAt >= 0 {
				t.Fatalf("second plan swap at superstep %d: %s", ev.Iteration, ev.Event)
			}
			swapAt = ev.Iteration
		case strings.Contains(ev.Event, "shape unchanged"):
			kept++
		}
	}
	if swapAt < 0 || kept == 0 || reopt.PlanEpochs != 1 {
		t.Fatalf("want one shape change and at least one same-shape re-plan, got events %v (PlanEpochs %d)",
			reopt.Trace.Events, reopt.PlanEpochs)
	}
	its := reopt.Trace.Iterations
	for i := swapAt + 2; i < len(its); i++ { // swapAt+1 refills the edge table
		in, out := its[i-1].Work.WorksetElements, its[i].Work.WorksetElements
		if shipped := its[i].Work.RecordsShipped; shipped > in+out {
			t.Errorf("superstep %d shipped %d records for a workset of %d in, %d out — the constant path was refilled",
				i, shipped, in, out)
		}
	}
}

// reshapingCC is incremental CC with Reoptimize on over a dense core with
// a long tail. At Parallelism 2 the cost-based planner broadcasts the
// small delta set against a stream-cached edge table; once the workset
// collapses into the tail, the greedy re-plan partitions the edge table
// instead (one real shape change), and the deeper collapse near
// convergence re-plans to that same shape (a no-op).
func reshapingCC(seed uint64) (*graphgen.Graph, iterative.IncrementalSpec, []record.Record, []record.Record) {
	g := graphgen.Uniform("reshaping", 100, 3000, seed).WithDiameterTail(30, 0)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Reoptimize = true
	return g, spec, s0, w0
}

// TestIncrementalSpecReuse is the regression test for the estimate-
// mutation bug: RunIncremental used to overwrite the shared plan node's
// EstRecords (once at entry, again on every reoptimize), so a reused spec
// silently planned run 2 with run 1's final workset size. Both runs must
// now plan identically, and the spec must come back unchanged.
func TestIncrementalSpecReuse(t *testing.T) {
	_, spec, s0, w0 := reshapingCC(42)
	origEst := spec.Workset.EstRecords

	var m metrics.Counters
	cfg := iterative.Config{Parallelism: 2, Metrics: &m}
	res1, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() == 0 {
		t.Fatalf("run did not reoptimize (supersteps=%d); the regression needs the reoptimize path",
			res1.Supersteps)
	}
	if got := spec.Workset.EstRecords; got != origEst {
		t.Fatalf("spec.Workset.EstRecords mutated: %d -> %d", origEst, got)
	}

	res2, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1, p2 := res1.Plan.Explain(), res2.Plan.Explain(); p1 != p2 {
		t.Errorf("run-2's first plan differs from run-1's:\nrun1:\n%s\nrun2:\n%s", p1, p2)
	}
	if got := spec.Workset.EstRecords; got != origEst {
		t.Errorf("spec.Workset.EstRecords mutated by run 2: %d -> %d", origEst, got)
	}
}

// TestReoptimizeCounters asserts the happy path: Reoptimizations counts
// exactly the re-plans that swapped a differently shaped plan in, each with
// a "reoptimized" trace event, while a re-plan that lands on the shape
// already running is traced but swaps — and counts — nothing. (Failures
// would land in ReoptimizeFailures; re-planning the same valid Δ cannot be
// made to fail deterministically, so the failure branch is covered by the
// counter contract only.)
func TestReoptimizeCounters(t *testing.T) {
	_, spec, s0, w0 := reshapingCC(7)

	var m metrics.Counters
	res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: 2, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() != 1 {
		t.Fatalf("Reoptimizations = %d after %d supersteps, want the one shape change", m.Reoptimizations.Load(), res.Supersteps)
	}
	if int64(res.PlanEpochs) != m.Reoptimizations.Load() {
		t.Errorf("PlanEpochs = %d, Reoptimizations = %d", res.PlanEpochs, m.Reoptimizations.Load())
	}
	if m.ReoptimizeFailures.Load() != 0 {
		t.Errorf("ReoptimizeFailures = %d, want 0", m.ReoptimizeFailures.Load())
	}
	var swaps, kept int
	for _, ev := range res.Trace.Events {
		if strings.Contains(ev.Event, "reoptimized") {
			swaps++
		}
		if strings.Contains(ev.Event, "shape unchanged") {
			kept++
		}
	}
	if int64(swaps) != m.Reoptimizations.Load() {
		t.Errorf("trace records %d reoptimizations, counter says %d", swaps, m.Reoptimizations.Load())
	}
	if kept == 0 {
		t.Errorf("no same-shape re-plan traced; events: %v", res.Trace.Events)
	}
}

// TestBulkSpecReuse is the bulk-side counterpart: RunBulk must not leave
// the initial-solution cardinality written into the shared Input node.
func TestBulkSpecReuse(t *testing.T) {
	g := graphgen.Uniform("bulk-reuse", 40, 80, 9)
	spec, initial := algorithms.CCBulkSpec(g)
	// A zero estimate is the case RunBulk used to overwrite in place.
	spec.Input.EstRecords = 0
	origEst := spec.Input.EstRecords
	if _, err := iterative.RunBulk(spec, initial, iterative.Config{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if got := spec.Input.EstRecords; got != origEst {
		t.Errorf("spec.Input.EstRecords mutated: %d -> %d", origEst, got)
	}
}

// BenchmarkReoptimizeCC runs the same fixpoint with and without mid-run
// re-optimization: what Reoptimize costs (or buys) end to end.
func BenchmarkReoptimizeCC(b *testing.B) {
	for _, reoptimize := range []bool{false, true} {
		name := "off"
		if reoptimize {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			spec, s0, w0 := rmatCC(reoptimize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
