package runtime_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
	"repro/internal/runtime"
)

// BenchmarkSuperstepLanes is where serialLaneRecords comes from: one
// superstep of the incremental CC Δ dataflow (solution cogroup, cached
// join against the edges, both sinks) over a workset of the given size in
// which every candidate wins, on each lane. The delta is not merged, so
// every iteration repeats the same superstep.
func BenchmarkSuperstepLanes(b *testing.B) {
	g := graphgen.Uniform("lanes", 1<<15, 1<<16, 1)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	for _, par := range []int{1, 2} {
		phys, err := iterative.PlanIncremental(spec, iterative.Config{Parallelism: par}, 0)
		if err != nil {
			b.Fatal(err)
		}
		exec := runtime.NewExecutor(runtime.Config{})
		exec.Solution = runtime.NewSolutionSet(par, spec.SolutionKey, spec.Comparator, nil)
		exec.Solution.Init(s0)
		sess := exec.OpenSession(phys)
		exec.SetPlaceholder(spec.Workset.ID, w0, spec.WorksetKey, par)
		if _, err := sess.Run(context.Background()); err != nil { // fills the constant-path caches
			b.Fatal(err)
		}
		for n := 16; n <= 16384; n *= 2 {
			workset := make([]record.Record, n)
			for i := range workset {
				workset[i] = record.Record{A: int64(1 + i*(len(s0)-1)/n), B: 0}
			}
			for _, lane := range []string{"serial", "parallel"} {
				serial := lane == "serial"
				b.Run(fmt.Sprintf("par=%d/workset=%d/%s", par, n, lane), func(b *testing.B) {
					defer runtime.ForceLane(func() bool { return serial })()
					for i := 0; i < b.N; i++ {
						exec.SetPlaceholder(spec.Workset.ID, workset, spec.WorksetKey, par)
						if _, err := sess.Run(context.Background()); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		sess.Close()
		exec.Close()
	}
}
