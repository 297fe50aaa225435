package iterative_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
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

// TestSingleProcessCCKeepsItsPlan: in one process the cost-based planner
// and the greedy re-planner agree on CC's shape at every workset estimate
// (TestPlannerAudit), so with Reoptimize on under the default planner the
// re-plans of the tail are all no-ops. The edge table is shipped and built
// once, in superstep 0; every later superstep ships at most its own
// workset.
func TestSingleProcessCCKeepsItsPlan(t *testing.T) {
	for _, par := range []int{1, 2} {
		spec, s0, w0 := rmatCC(true)
		var m metrics.Counters
		res, err := iterative.RunIncremental(spec, s0, w0,
			iterative.Config{Parallelism: par, Metrics: &m, CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Reoptimizations.Load(); n != 0 || res.PlanEpochs != 0 {
			t.Fatalf("P%d: %d plan swaps (PlanEpochs %d), want none; events %v", par, n, res.PlanEpochs, res.Trace.Events)
		}
		if m.GreedyPlans.Load() == 0 {
			t.Fatalf("P%d: the run never re-planned; the test needs the re-plan path", par)
		}
		its := res.Trace.Iterations
		for i := 1; i < len(its); i++ {
			in, out := its[i-1].Work.WorksetElements, its[i].Work.WorksetElements
			if shipped := its[i].Work.RecordsShipped; shipped > in+out {
				t.Errorf("P%d superstep %d shipped %d records for a workset of %d in, %d out — the constant path was refilled",
					par, i, shipped, in, out)
			}
		}
	}
}

// reshapingJob is the spec of a 2-host distributed CC job with Reoptimize
// on — the shape of `spinflow distributed`'s cc reoptimize cell: a
// near-complete core with a long tail. Run in one process with
// reshapingConfig, it plans exactly as that job's coordinator does. At two
// hosts a partition crossing is priced mostly as network traffic, and the
// cost-based planner broadcasts the small delta set against a stream-cached
// edge table; the greedy re-plan once the workset collapses into the tail
// partitions and builds the edge table instead (one real shape change),
// and the deeper collapse near convergence re-plans to that same shape (a
// no-op).
func reshapingJob(t testing.TB) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	t.Helper()
	spec, s0, w0, err := distrib.BuildSpec(distrib.JobSpec{Algorithm: "cc-cogroup", GraphKind: "uniform-tail",
		GraphN: 200, GraphM: 30000, Seed: 0xE90C, Parallelism: 2, Reoptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return spec, s0, w0
}

// reshapingConfig plans reshapingJob for the 2-host job it comes from.
func reshapingConfig(m *metrics.Counters) iterative.Config {
	return iterative.Config{Parallelism: 2, Hosts: 2, Metrics: m, CollectTrace: true}
}

// TestReoptimizeKeepsConstantPathWarm: with Reoptimize on, the constant
// data path (the edge table) is rebuilt once, in the superstep after the
// one re-plan that changes the plan's shape. Every later superstep — the
// same-shape re-plans included — ships at most its own workset, and the
// fixpoint and superstep count equal a run without re-optimization.
func TestReoptimizeKeepsConstantPathWarm(t *testing.T) {
	run := func(reoptimize bool) *iterative.IncrementalResult {
		spec, s0, w0 := reshapingJob(t)
		spec.Reoptimize = reoptimize
		var m metrics.Counters
		res, err := iterative.RunIncremental(spec, s0, w0, reshapingConfig(&m))
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

// TestIncrementalSpecReuse is the regression test for the estimate-
// mutation bug: RunIncremental used to overwrite the shared plan node's
// EstRecords (once at entry, again on every reoptimize), so a reused spec
// silently planned run 2 with run 1's final workset size. Both runs must
// now plan identically, and the spec must come back unchanged.
func TestIncrementalSpecReuse(t *testing.T) {
	spec, s0, w0 := reshapingJob(t)
	origEst := spec.Workset.EstRecords

	var m metrics.Counters
	cfg := reshapingConfig(&m)
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
// already running is traced but swaps — and counts — nothing.
func TestReoptimizeCounters(t *testing.T) {
	spec, s0, w0 := reshapingJob(t)

	var m metrics.Counters
	res, err := iterative.RunIncremental(spec, s0, w0, reshapingConfig(&m))
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() != 1 {
		t.Fatalf("Reoptimizations = %d after %d supersteps, want the one shape change", m.Reoptimizations.Load(), res.Supersteps)
	}
	if int64(res.PlanEpochs) != m.Reoptimizations.Load() {
		t.Errorf("PlanEpochs = %d, Reoptimizations = %d", res.PlanEpochs, m.Reoptimizations.Load())
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

// TestRunIncrementalReportsFinalPlan: after a plan swap, RunIncremental's
// result names the plan its last superstep ran, as Fixpoint.Run does for
// the same job — not the plan the run started with.
func TestRunIncrementalReportsFinalPlan(t *testing.T) {
	spec, s0, w0 := reshapingJob(t)
	cfg := reshapingConfig(nil)
	initial, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	f := openFixpoint(t, spec, cfg)
	defer f.Close()
	f.Solution().Init(s0)
	fres, err := f.Run(w0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanEpochs != 1 || fres.PlanEpochs != 1 {
		t.Fatalf("PlanEpochs %d (RunIncremental), %d (Fixpoint.Run), want the one swap", res.PlanEpochs, fres.PlanEpochs)
	}
	got, want := res.Plan.Fingerprint(), fres.Plan.Fingerprint()
	if got != want {
		t.Errorf("RunIncremental reports plan %.12s, Fixpoint.Run %.12s", got, want)
	}
	if got == initial.Fingerprint() {
		t.Errorf("RunIncremental reports the initial plan %.12s after a swap", got)
	}
}

// TestSwapNamesCauseAndCost: a plan swap's trace event and its swap-phase
// span say which plans were swapped (both shapes, and the planner behind
// each) and how many bytes of cached constant-path state the swap dropped
// for the next superstep to refill.
func TestSwapNamesCauseAndCost(t *testing.T) {
	spec, s0, w0 := reshapingJob(t)
	var m metrics.Counters
	cfg := reshapingConfig(&m)
	initial, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	greedy := cfg
	greedy.Planner = optimizer.PlannerGreedy
	replanned, err := iterative.PlanIncremental(spec, greedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, id := obs.NewRegistry(), obs.NewTraceID()
	cfg.Obs, cfg.TraceID = reg, id
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var event string
	for _, ev := range res.Trace.Events {
		if strings.Contains(ev.Event, "reoptimized") {
			event = ev.Event
		}
	}
	want := fmt.Sprintf("cost plan %s → greedy plan %s, dropped ",
		initial.Fingerprint()[:12], replanned.Fingerprint()[:12])
	if !strings.Contains(event, want) || strings.Contains(event, "dropped 0.0 MiB") {
		t.Fatalf("swap event %q, want it to contain %q and a non-zero size", event, want)
	}
	var swaps []obs.Span
	for _, sp := range reg.Trace().SpansFor(id) {
		if sp.Phase == obs.PhaseSwap {
			swaps = append(swaps, sp)
		}
	}
	if len(swaps) != 1 || swaps[0].Label != event {
		t.Fatalf("swap spans %+v, want one labelled %q", swaps, event)
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
