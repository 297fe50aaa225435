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
