// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations for the design choices DESIGN.md calls out (plan choice,
// combiners, update-operator variant, parallelism). Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced dataset scales so a full sweep stays in the
// minutes range; the cmd/spinflow binary runs the full-scale experiments.
package spinflow

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/fixpoint"
	"repro/internal/graphgen"
	"repro/internal/harness"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pregel"
	"repro/internal/record"
	"repro/internal/runtime"
	"repro/internal/sparklike"
)

const benchParallelism = 4

func benchOpts() harness.Options {
	return harness.Options{
		Scale:              graphgen.ScaleTiny,
		Parallelism:        benchParallelism,
		PageRankIterations: 5,
	}
}

// BenchmarkTable1Templates runs the three Table-1 iteration templates on
// the Figure-1 sample graph.
func BenchmarkTable1Templates(b *testing.B) {
	adj := fixpoint.Figure1Graph()
	for i := 0; i < b.N; i++ {
		if _, _, err := fixpoint.FixpointCC(adj, 100); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fixpoint.IncrementalCC(adj, 100); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fixpoint.MicrostepCC(adj, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Datasets generates all Table-2 datasets.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range graphgen.AllTable2() {
			g := graphgen.Load(d, graphgen.ScaleTiny)
			if g.NumEdges() == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
}

// BenchmarkFig2EffectiveWork measures the Figure-2 experiment: incremental
// Connected Components with full work accounting on the FOAF graph.
func BenchmarkFig2EffectiveWork(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure2(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4PlanChoice measures pure optimization time for the
// PageRank plan (enumeration, interesting properties, loop feedback).
func BenchmarkFig4PlanChoice(b *testing.B) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	spec, _ := algorithms.PageRankSpec(g, 20, algorithms.DefaultDamping, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optimizer.Optimize(spec.Plan, optimizer.Options{
			Parallelism:        benchParallelism,
			ExpectedIterations: 20,
			Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PageRank measures PageRank per engine (Figure 7's bars).
func BenchmarkFig7PageRank(b *testing.B) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	const iters = 5
	b.Run("Spark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := sparklike.NewContext(benchParallelism, nil)
			if _, _, err := sparklike.PageRank(ctx, g, iters, algorithms.DefaultDamping, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Giraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := pregel.Config{Parallelism: benchParallelism}
			if _, _, err := pregel.PageRank(g, iters, algorithms.DefaultDamping, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StratospherePart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := iterative.Config{Parallelism: benchParallelism}
			if _, _, err := algorithms.PageRankVariant(g, iters, algorithms.PlanPartition, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StratosphereBC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := iterative.Config{Parallelism: benchParallelism}
			if _, _, err := algorithms.PageRankVariant(g, iters, algorithms.PlanBroadcast, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8PerIterationTrace measures PageRank with per-iteration
// tracing enabled (Figure 8's series collection).
func BenchmarkFig8PerIterationTrace(b *testing.B) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	for i := 0; i < b.N; i++ {
		cfg := iterative.Config{Parallelism: benchParallelism, CollectTrace: true}
		_, res, err := algorithms.PageRankVariant(g, 5, algorithms.PlanAuto, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace.Iterations) != 5 {
			b.Fatal("trace incomplete")
		}
	}
}

// BenchmarkFig9CC measures Connected Components per engine and variant
// (Figure 9's bars) on the wikipedia and hollywood stand-ins.
func BenchmarkFig9CC(b *testing.B) {
	for _, ds := range []graphgen.Dataset{graphgen.DSWikipedia, graphgen.DSHollywood} {
		g := graphgen.Load(ds, graphgen.ScaleTiny)
		name := string(ds)
		b.Run(name+"/Spark", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := sparklike.NewContext(benchParallelism, nil)
				if _, err := sparklike.ConnectedComponents(ctx, g, 0, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Giraph", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := pregel.Config{Parallelism: benchParallelism}
				if _, _, err := pregel.ConnectedComponents(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/StratosphereFull", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, initial := algorithms.CCBulkSpec(g)
				if _, err := iterative.RunBulk(spec, initial, iterative.Config{Parallelism: benchParallelism}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/StratosphereMicro", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := iterative.Config{Parallelism: benchParallelism}
				if _, _, err := algorithms.CCIncremental(g, algorithms.CCMatch, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/StratosphereIncr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := iterative.Config{Parallelism: benchParallelism}
				if _, _, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Kept under its name so its trajectory stays comparable: the
		// microstep entry (RunMicrostep) on the same Match Δ as
		// StratosphereMicro — one engine, so the two should read alike.
		b.Run(name+"/StratosphereAsync", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
				if _, err := iterative.RunMicrostep(spec, s0, w0, iterative.Config{Parallelism: benchParallelism}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10WebbaseTail measures incremental Connected Components to
// full convergence on the high-diameter Webbase stand-in (Figure 10).
func BenchmarkFig10WebbaseTail(b *testing.B) {
	g := graphgen.Webbase(graphgen.ScaleTiny)
	for i := 0; i < b.N; i++ {
		cfg := iterative.Config{Parallelism: benchParallelism}
		_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Supersteps < 20 {
			b.Fatalf("tail too short: %d supersteps", res.Supersteps)
		}
	}
}

// BenchmarkFig11SimulatedIncremental measures Spark's
// simulated-incremental variant (Figure 11's extra curve).
func BenchmarkFig11SimulatedIncremental(b *testing.B) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	for i := 0; i < b.N; i++ {
		ctx := sparklike.NewContext(benchParallelism, nil)
		if _, err := sparklike.SimIncrementalCC(ctx, g, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Variants measures the three Connected Components variants
// with message accounting (Figure 12's correlation data).
func BenchmarkFig12Variants(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure12(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Superstep throughput (persistent sessions vs. cold setup) -----------

// benchPageRankSuperstep measures one steady-state PageRank-bulk
// superstep. runStep abstracts the execution mode: the persistent session
// (this runtime) versus a cold one-shot Run per superstep, which re-does
// the pre-refactor per-pass setup — fresh goroutines for every
// node×partition, fresh exchange queues, and freshly allocated batches.
func benchPageRankSuperstep(b *testing.B, cold, traced, fuse bool) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	spec, initial := algorithms.PageRankSpec(g, 50, algorithms.DefaultDamping, 0)
	spec.Input.EstRecords = int64(len(initial))
	phys, err := optimizer.Optimize(spec.Plan, optimizer.Options{
		Parallelism:        benchParallelism,
		ExpectedIterations: 50,
		Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		Fuse:               fuse,
	})
	if err != nil {
		b.Fatal(err)
	}
	exec := runtime.NewExecutor(benchRuntimeConfig(traced, "pagerank"))
	defer exec.Close()
	phKey := phys.PlaceholderKey(spec.Input.ID)
	exec.SetPlaceholder(spec.Input.ID, initial, phKey, benchParallelism)
	sess := exec.OpenSession(phys)
	defer sess.Close()

	feed := func(res runtime.Result) {
		if phKey != nil {
			exec.SetPlaceholderParts(spec.Input.ID, res[spec.Output.ID])
		} else {
			exec.SetPlaceholder(spec.Input.ID, res.Records(spec.Output.ID), nil, benchParallelism)
		}
	}
	step := func() runtime.Result {
		var res runtime.Result
		var err error
		if cold {
			res, err = exec.Run(phys)
		} else {
			res, err = sess.Run(context.Background())
		}
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Warm up: fill the loop-invariant caches and the batch pool so the
	// measurement sees only steady-state supersteps.
	for i := 0; i < 3; i++ {
		feed(step())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(step())
	}
}

// benchRuntimeConfig is the executor config the superstep benchmarks
// run under: untraced (the default nil sink — its cost is one branch
// per instrumentation site, and "session" must stay within noise of the
// pre-telemetry baseline) or traced (ring + histograms live, the
// "traced" sub-benchmarks bound the full recording overhead).
func benchRuntimeConfig(traced bool, label string) runtime.Config {
	if !traced {
		return runtime.Config{}
	}
	reg := obs.NewRegistry()
	return runtime.Config{
		Trace:      reg.Trace(),
		TraceID:    obs.NewTraceID(),
		TraceLabel: label,
	}
}

// BenchmarkSuperstepPageRankBulk compares allocations and time per
// steady-state bulk-PageRank superstep with the persistent session
// against the pre-refactor cold-setup execution (compare the two
// sub-benchmarks' allocs/op). The traced variant runs the same session
// with span recording live. These three plan without fusion; the fused
// variant runs the session on the plan the drivers run — the union and
// the combiner absorbed into the join, joinPA+contrib+sumRanks-combine.
func BenchmarkSuperstepPageRankBulk(b *testing.B) {
	b.Run("session", func(b *testing.B) { benchPageRankSuperstep(b, false, false, false) })
	b.Run("traced", func(b *testing.B) { benchPageRankSuperstep(b, false, true, false) })
	b.Run("cold", func(b *testing.B) { benchPageRankSuperstep(b, true, false, false) })
	b.Run("fused", func(b *testing.B) { benchPageRankSuperstep(b, false, false, true) })
}

// benchCCSuperstep measures one incremental Connected Components
// superstep: the Δ flow over a fixed working set against the live
// solution set, with the delta merge applied — the per-superstep work of
// RunIncremental, isolated from convergence.
func benchCCSuperstep(b *testing.B, cold, traced bool) {
	g := graphgen.FOAF(graphgen.ScaleTiny)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Workset.EstRecords = int64(len(w0))
	phys, err := optimizer.Optimize(spec.Plan, optimizer.Options{
		Parallelism:        benchParallelism,
		ExpectedIterations: 10,
		PlaceholderProps: map[int]optimizer.Props{
			spec.Workset.ID: {Part: record.KeyID(spec.WorksetKey)},
		},
		SinkPartition: map[int]record.KeyFunc{
			spec.DeltaSink.ID:   spec.SolutionKey,
			spec.WorksetSink.ID: spec.WorksetKey,
		},
		Feedback: map[int]int{spec.Workset.ID: spec.WorksetSink.ID},
	})
	if err != nil {
		b.Fatal(err)
	}
	exec := runtime.NewExecutor(benchRuntimeConfig(traced, "cc"))
	defer exec.Close()
	exec.Solution = runtime.NewSolutionSet(benchParallelism, spec.SolutionKey, spec.Comparator, nil)
	exec.Solution.Init(s0)
	exec.SetPlaceholder(spec.Workset.ID, w0, spec.WorksetKey, benchParallelism)
	sess := exec.OpenSession(phys)
	defer sess.Close()

	step := func() {
		var res runtime.Result
		var err error
		if cold {
			res, err = exec.Run(phys)
		} else {
			res, err = sess.Run(context.Background())
		}
		if err != nil {
			b.Fatal(err)
		}
		exec.Solution.MergeDelta(res.Records(spec.DeltaSink.ID))
		// Fixed working set per superstep: constant work, no convergence.
		exec.SetPlaceholder(spec.Workset.ID, w0, spec.WorksetKey, benchParallelism)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSuperstepCCIncremental is the incremental counterpart of
// BenchmarkSuperstepPageRankBulk.
func BenchmarkSuperstepCCIncremental(b *testing.B) {
	b.Run("session", func(b *testing.B) { benchCCSuperstep(b, false, false) })
	b.Run("traced", func(b *testing.B) { benchCCSuperstep(b, false, true) })
	b.Run("cold", func(b *testing.B) { benchCCSuperstep(b, true, false) })
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationCombiner isolates the pre-shuffle combiner's effect on
// bulk PageRank (§6.1 mentions pre-aggregation as essential): with and
// without it under the default (fused) plan, and — with it — fused versus
// unfused (Config.DisableFusion). Fused means the join, the union and the
// combiner run as one task (joinPA+contrib+sumRanks-combine); unfused
// runs each as a task of its own behind a forward exchange. "with" and
// "fused" run the same configuration; their gap is the run-to-run noise
// the others read against.
func BenchmarkAblationCombiner(b *testing.B) {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	run := func(b *testing.B, combinable, disableFusion bool) {
		for i := 0; i < b.N; i++ {
			spec, initial := algorithms.PageRankSpec(g, 5, algorithms.DefaultDamping, 0)
			for _, n := range spec.Plan.Nodes() {
				if n.Name == "sumRanks" {
					n.Combinable = combinable
				}
			}
			cfg := iterative.Config{Parallelism: benchParallelism, DisableFusion: disableFusion}
			if _, err := iterative.RunBulk(spec, initial, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("with", func(b *testing.B) { run(b, true, false) })
	b.Run("without", func(b *testing.B) { run(b, false, false) })
	b.Run("fused", func(b *testing.B) { run(b, true, false) })
	b.Run("unfused", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkWorksetFold measures the comparator's keep-the-better workset
// fold: CoGroup Connected Components on a dense R-MAT graph at P1 and P2,
// with the spec's BestCandidateOnly declaration (the fold is taken, on W0
// and inside toNeighbors) and without it. workset/op counts the
// working-set records the CoGroup grouped over the whole fixpoint,
// shipped/op the records that crossed an exchange.
func BenchmarkWorksetFold(b *testing.B) {
	g := graphgen.RMAT("rmat", 13, 250_000, 0.57, 0.19, 0.19, 7)
	for _, par := range []int{1, 2} {
		for _, fold := range []bool{true, false} {
			name := fmt.Sprintf("p%d/fold", par)
			if !fold {
				name = fmt.Sprintf("p%d/none", par)
			}
			b.Run(name, func(b *testing.B) {
				spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
				spec.BestCandidateOnly = fold
				var m metrics.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: par, Metrics: &m}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(m.WorksetElements.Load())/float64(b.N), "workset/op")
				b.ReportMetric(float64(m.RecordsShipped.Load())/float64(b.N), "shipped/op")
			})
		}
	}
}

// BenchmarkAblationUpdateOperator isolates the CoGroup-vs-Match update
// choice on a dense graph, where the paper finds grouping wins (§6.2:
// hollywood, "the batch incremental algorithm is here roughly 30% faster").
func BenchmarkAblationUpdateOperator(b *testing.B) {
	g := graphgen.Hollywood(graphgen.ScaleTiny)
	for _, v := range []struct {
		name    string
		variant algorithms.CCVariant
	}{{"CoGroup", algorithms.CCCoGroup}, {"Match", algorithms.CCMatch}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := iterative.Config{Parallelism: benchParallelism}
				if _, _, err := algorithms.CCIncremental(g, v.variant, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelism sweeps the partition count for incremental
// Connected Components.
func BenchmarkAblationParallelism(b *testing.B) {
	g := graphgen.FOAF(graphgen.ScaleTiny)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "p1", 2: "p2", 4: "p4", 8: "p8"}[par], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := iterative.Config{Parallelism: par}
				if _, _, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCaching isolates the constant-path cache: the same
// 5-pass bulk PageRank plan run on one session with the feedback
// execution, where the loop-invariant caches survive every pass, and
// unrolled (§4.2's loop-unrolling strategy, which the paper rejects and
// the drivers do not offer), where Executor.Close drops the caches before
// every pass after the first, so each one re-evaluates the constant path.
func BenchmarkAblationCaching(b *testing.B) {
	const passes = 5
	g := graphgen.Wikipedia(graphgen.ScaleTiny)
	spec, initial := algorithms.PageRankSpec(g, passes, algorithms.DefaultDamping, 0)
	spec.Input.EstRecords = int64(len(initial))
	phys, err := optimizer.Optimize(spec.Plan, optimizer.Options{
		Parallelism:        benchParallelism,
		ExpectedIterations: passes,
		Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		JoinHints:          spec.JoinHints,
		Fuse:               true,
	})
	if err != nil {
		b.Fatal(err)
	}
	phKey := phys.PlaceholderKey(spec.Input.ID)
	for _, unroll := range []bool{false, true} {
		name := map[bool]string{false: "cached", true: "uncached"}[unroll]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec := runtime.NewExecutor(runtime.Config{})
				exec.SetPlaceholder(spec.Input.ID, initial, phKey, benchParallelism)
				sess := exec.OpenSession(phys)
				for pass := 0; pass < passes; pass++ {
					if unroll && pass > 0 {
						exec.Close()
					}
					res, err := sess.Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if phKey != nil {
						exec.SetPlaceholderParts(spec.Input.ID, res[spec.Output.ID])
					} else {
						exec.SetPlaceholder(spec.Input.ID, res.Records(spec.Output.ID), nil, benchParallelism)
					}
				}
				sess.Close()
				exec.Close()
			}
		})
	}
}

// --- Solution-set backends ----------------------------------------------

const solutionBenchN = 1 << 16

// solutionBenchRecords is one solution's worth of keyed records.
func solutionBenchRecords() []record.Record {
	recs := make([]record.Record, solutionBenchN)
	for i := range recs {
		recs[i] = record.Record{A: int64(i), B: int64(i + solutionBenchN)}
	}
	return recs
}

// minBComparator keeps the record with the smaller B (CC-style CPO).
func minBComparator(a, b record.Record) int {
	switch {
	case a.B < b.B:
		return 1
	case a.B > b.B:
		return -1
	default:
		return 0
	}
}

var solutionBackendsBench = []struct {
	name   string
	budget int64
}{
	{"compact", 0},
	{"spill", solutionBenchN * record.EncodedSize / 4},
}

// BenchmarkSolutionSetMerge measures the steady-state generational merge:
// per op, one Reset (slab reuse) plus an insert wave and an improving
// delta wave arbitrated by a comparator — the per-superstep ∪̇ work of an
// incremental iteration.
func BenchmarkSolutionSetMerge(b *testing.B) {
	inserts := solutionBenchRecords()
	improved := make([]record.Record, len(inserts))
	for i, r := range inserts {
		improved[i] = record.Record{A: r.A, B: r.B - solutionBenchN}
	}
	for _, bk := range solutionBackendsBench {
		b.Run(bk.name, func(b *testing.B) {
			s := runtime.NewSolutionSetWith(benchParallelism, record.KeyA, minBComparator, nil, bk.budget)
			defer s.Reset() // the spill leg's files
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				s.MergeDelta(inserts)
				s.MergeDelta(improved)
			}
		})
	}
}

// BenchmarkSolutionSetLookup measures a cold build plus a full probe
// sweep: per op, a fresh solution set is loaded with Init and every key is
// looked up once. The compact backend sizes its slabs from the bulk load
// and keeps records unboxed.
func BenchmarkSolutionSetLookup(b *testing.B) {
	recs := solutionBenchRecords()
	for _, bk := range solutionBackendsBench {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := runtime.NewSolutionSetWith(benchParallelism, record.KeyA, nil, nil, bk.budget)
				s.Init(recs)
				// Partition-major probing, as partition-pinned workers do.
				for p := 0; p < benchParallelism; p++ {
					for k := int64(0); k < solutionBenchN; k++ {
						if s.PartitionFor(k) != p {
							continue
						}
						if _, ok := s.Lookup(p, k); !ok {
							b.Fatal("missing key")
						}
					}
				}
				b.StopTimer()
				s.Reset() // the spill leg's files
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSolutionSetSpill measures the out-of-core cycle: merges and a
// partition-crossing lookup sweep under a budget that keeps only a
// quarter of the set resident, so evictions and reloads happen on the
// measured path (compare against the unbudgeted compact run).
func BenchmarkSolutionSetSpill(b *testing.B) {
	recs := solutionBenchRecords()
	variants := []struct {
		name   string
		budget int64
	}{
		{"compact-unbudgeted", 0},
		{"spill-quarter", solutionBenchN * record.EncodedSize / 4},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			s := runtime.NewSolutionSetWith(benchParallelism, record.KeyA, nil, nil, v.budget)
			defer s.Reset() // the spill leg's files
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				s.MergeDelta(recs)
				// Probe partition-major, the partition-pinned access pattern
				// the runtime produces; an interleaved sweep under a tight
				// budget would measure eviction thrash instead.
				for p := 0; p < benchParallelism; p++ {
					for k := int64(0); k < solutionBenchN; k += 97 {
						if s.PartitionFor(k) == p {
							s.Lookup(p, k)
						}
					}
				}
			}
		})
	}
}

// BenchmarkLiveMaintenance measures the serving claim: absorbing a
// mutation batch into a resident LiveView (warm) versus re-running the
// incremental fixpoint from scratch over the mutated graph (cold), at
// 1%/5%/20% mutation rates on the FOAF Connected Components scenario.
// Per op, warm applies one batch to an already-converged view (the view
// is rebuilt outside the timer whenever a batch has been consumed); cold
// runs RunIncremental over the post-mutation graph. The acceptance bar is
// warm ≥ 5x faster than cold at the 1% rate.
func BenchmarkLiveMaintenance(b *testing.B) {
	g := graphgen.FOAF(graphgen.Scale(0.3))
	initial := make([]live.Mutation, len(g.Edges))
	for i, e := range g.Edges {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	for _, rate := range []float64{0.01, 0.05, 0.20} {
		n := int(float64(g.NumEdges()) * rate)
		if n < 1 {
			n = 1
		}
		batch := liveBenchBatch(g, n)

		b.Run(fmt.Sprintf("warm/rate=%d%%", int(rate*100)), func(b *testing.B) {
			cfg := live.ViewConfig{Config: iterative.Config{Parallelism: benchParallelism}}
			v, err := live.NewView("bench", live.CC(), initial, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			fresh := true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !fresh {
					// Rebuild the converged view off the clock so every
					// measured op absorbs the batch into pristine state.
					b.StopTimer()
					v.Close()
					v, err = live.NewView("bench", live.CC(), initial, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := v.Mutate(batch...); err != nil {
					b.Fatal(err)
				}
				if err := v.Flush(); err != nil {
					b.Fatal(err)
				}
				fresh = false
			}
		})

		b.Run(fmt.Sprintf("cold/rate=%d%%", int(rate*100)), func(b *testing.B) {
			numV := g.NumVertices
			edges := append([]graphgen.Edge(nil), g.Edges...)
			for _, m := range batch {
				edges = append(edges, graphgen.Edge{Src: m.Src, Dst: m.Dst})
				if m.Dst >= numV {
					numV = m.Dst + 1
				}
			}
			mutated := &graphgen.Graph{Name: "bench", NumVertices: numV, Edges: edges}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.CCIncremental(mutated, algorithms.CCCoGroup,
					iterative.Config{Parallelism: benchParallelism}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributed runs the harness distributed scenario at bench
// scale — the 2-process differential matrix plus the 1-proc vs 2-proc
// superstep-throughput pair — and emits the table as
// BENCH_distributed.json, a benchmark-trajectory artifact CI uploads. The
// custom metric is the 2-process superstep rate.
func BenchmarkDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Distributed(harness.Options{
			Scale: 0.25, Parallelism: benchParallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_distributed.json", buf, 0o644); err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Bench {
			b.ReportMetric(row.StepsPerSec, fmt.Sprintf("steps/s-%dproc", row.Hosts))
		}
	}
}

// liveBenchBatch mirrors the harness scenario's mutation mix: half the
// inserts connect existing vertices, half attach new ones.
func liveBenchBatch(g *graphgen.Graph, n int) []live.Mutation {
	rng := struct{ s uint64 }{s: 0xBE9C}
	next := func() uint64 {
		rng.s ^= rng.s >> 12
		rng.s ^= rng.s << 25
		rng.s ^= rng.s >> 27
		return rng.s * 0x2545f4914f6cdd1d
	}
	intn := func(m int64) int64 { return int64(next() % uint64(m)) }
	out := make([]live.Mutation, 0, n)
	nextVertex := g.NumVertices
	for len(out) < n {
		s := intn(g.NumVertices)
		var d int64
		if len(out)%2 == 0 {
			d = nextVertex
			nextVertex++
		} else {
			d = intn(g.NumVertices)
			if s == d {
				continue
			}
		}
		out = append(out, live.InsertEdge(s, d))
	}
	return out
}

// BenchmarkSuperstepPipeline measures superstep throughput on a
// map/filter-heavy bulk iteration — the shape operator fusion targets:
// three chained element-wise operators per pass, whose two intermediate
// exchange hops (queue round-trip, batch copy, pool cycle) the fusion
// rewrite removes.
func BenchmarkSuperstepPipeline(b *testing.B) {
	const (
		n     = 20000
		iters = 20
	)
	initial := make([]record.Record, n)
	for i := range initial {
		initial[i] = record.Record{A: int64(i), X: 1}
	}
	build := func() iterative.BulkSpec {
		p := dataflow.NewPlan()
		in := p.IterationPlaceholder("state", n)
		inc := p.MapNode("inc", in, func(r record.Record, out dataflow.Emitter) {
			r.X++
			out.Emit(r)
		})
		keep := p.FilterNode("keep", inc, func(r record.Record) bool {
			return r.A%17 != 3
		})
		scale := p.MapNode("scale", keep, func(r record.Record, out dataflow.Emitter) {
			r.X *= 0.99
			out.Emit(r)
		})
		out := p.SinkNode("next", scale)
		return iterative.BulkSpec{Plan: p, Input: in, Output: out, FixedIterations: iters}
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fused", false}, {"unfused", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var recs float64
			for i := 0; i < b.N; i++ {
				res, err := iterative.RunBulk(build(), initial, iterative.Config{
					Parallelism:   benchParallelism,
					DisableFusion: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				recs += float64(res.Iterations) * n
			}
			b.ReportMetric(recs/b.Elapsed().Seconds(), "rec/s")
		})
	}
}

// --- COST ---------------------------------------------------------------

// BenchmarkCOST measures each library workload of `go run ./bench` against
// the plain single-thread program that computes the same answer, on a
// graph of the bench's shape (McSherry, Isard & Murray, "Scalability! But
// at what COST?", HotOS 2015):
//
//	pagerank  R-MAT 2^16 vertices, 730k edges, 20 iterations; a push loop
//	          over the edge list
//	cc        R-MAT 2^15 vertices, 1.1M edges and a 12-vertex tail; union-find
//	          over dense arrays, and workset label propagation over an
//	          adjacency built once, outside its timing
//	sssp      the cc graph with weights 1..10; Dijkstra with a binary heap
//
// Each plain program runs as its own sub-benchmark, and the engine at
// Parallelism 1 and 2 beside it. An engine sub-benchmark first checks that
// its answer equals the plain one's, then reports cost_ratio, its run over
// the fastest plain program's run (the best of three). Against a plain
// program that iterates as the engine's supersteps do, the push loop and
// label propagation, it also reports steady_cost_ratio: both sides' runs
// without their first pass, so planning and the first superstep's table
// builds are split out. Each engine run also reports first_ms, its first
// superstep's time, where those builds fall; workset/op, the records added
// to the working set (metrics.Counters.WorksetElements); and
// supersteps/op; engine-P2 reports par_ratio, its run over engine-P1's.
// Reported, never gated.
func BenchmarkCOST(b *testing.B) {
	const prIters = 20
	pr := graphgen.RMAT("cost-pagerank", 16, 730_000, 0.45, 0.22, 0.22, 9701)
	cc := graphgen.RMAT("cost-cc", 15, 1_100_000, 0.57, 0.19, 0.19, 9702).WithDiameterTail(12, 0)
	und := costCSR(cc.Undirected())
	weighted := make([]algorithms.WeightedEdge, len(cc.Edges))
	for i, e := range cc.Edges {
		weighted[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: float64(1 + (e.Src*31+e.Dst)%10)}
	}

	prSpec, prInit := algorithms.PageRankSpec(pr, prIters, algorithms.DefaultDamping, 0)
	ccSpec, ccS0, ccW0 := algorithms.CCIncrementalSpec(cc, algorithms.CCCoGroup)
	ccSpec.Reoptimize = true // as the bench's cc workloads run it
	ssspSpec, ssspS0, ssspW0 := algorithms.SSSPSpec(weighted, 0)

	costWorkload(b, "pagerank",
		[]costPlain{{"push", func() (any, []time.Duration) { return costPushPageRank(pr, prIters, algorithms.DefaultDamping) }}},
		func(cfg iterative.Config) (any, []time.Duration, error) {
			res, err := iterative.RunBulk(prSpec, prInit, cfg)
			if err != nil {
				return nil, nil, err
			}
			ranks := make([]float64, pr.NumVertices)
			for _, r := range res.Solution {
				ranks[r.A] = r.X
			}
			return ranks, costPasses(res.Trace), nil
		},
		func(plain, engine any) bool {
			p, e := plain.([]float64), engine.([]float64)
			for v := range p {
				if math.Abs(p[v]-e[v]) > 1e-9+1e-6*p[v] {
					return false
				}
			}
			return true
		})
	costWorkload(b, "cc",
		[]costPlain{
			{"union-find", func() (any, []time.Duration) { return costUnionFind(cc), nil }},
			{"label-propagation", func() (any, []time.Duration) { return costLabelProp(und) }},
		},
		func(cfg iterative.Config) (any, []time.Duration, error) {
			res, err := iterative.RunIncremental(ccSpec, ccS0, ccW0, cfg)
			if err != nil {
				return nil, nil, err
			}
			labels := make([]int64, cc.NumVertices)
			for _, r := range res.Solution {
				labels[r.A] = r.B
			}
			return labels, costPasses(res.Trace), nil
		},
		func(plain, engine any) bool { return slices.Equal(plain.([]int64), engine.([]int64)) })
	costWorkload(b, "sssp",
		[]costPlain{{"dijkstra", func() (any, []time.Duration) { return costDijkstra(cc.NumVertices, weighted, 0), nil }}},
		func(cfg iterative.Config) (any, []time.Duration, error) {
			res, err := iterative.RunIncremental(ssspSpec, ssspS0, ssspW0, cfg)
			if err != nil {
				return nil, nil, err
			}
			dist := make([]float64, cc.NumVertices)
			for i := range dist {
				dist[i] = math.Inf(1)
			}
			for _, r := range res.Solution {
				dist[r.A] = r.X
			}
			return dist, costPasses(res.Trace), nil
		},
		func(plain, engine any) bool { return slices.Equal(plain.([]float64), engine.([]float64)) })
}

// costPlain is one plain single-thread program: it returns its answer and,
// if it iterates as the engine's supersteps do, the time of each pass.
type costPlain struct {
	name string
	run  func() (answer any, passes []time.Duration)
}

// costWorkload runs one workload's plain programs and its engine runs at
// Parallelism 1 and 2 as sub-benchmarks of b (BenchmarkCOST).
func costWorkload(b *testing.B, name string, plains []costPlain,
	engine func(iterative.Config) (any, []time.Duration, error), same func(plain, engine any) bool) {
	var want any
	best := time.Duration(math.MaxInt64) // the fastest plain program's best run
	var steady time.Duration             // an iterating one's best run without its first pass
	for _, p := range plains {
		for range 3 {
			start := time.Now()
			answer, passes := p.run()
			if d := time.Since(start); d < best {
				want, best = answer, d
			}
			if len(passes) > 1 {
				if s := costSum(passes[1:]); steady == 0 || s < steady {
					steady = s
				}
			}
		}
		b.Run(name+"/plain-"+p.name, func(b *testing.B) {
			for range b.N {
				p.run()
			}
		})
	}
	var p1 time.Duration // engine-P1's run, which P2's par_ratio divides by
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("%s/engine-P%d", name, par), func(b *testing.B) {
			var m metrics.Counters
			cfg := iterative.Config{Parallelism: par, CollectTrace: true, Metrics: &m}
			got, _, err := engine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !same(want, got) {
				b.Fatal("the engine's answer differs from the plain program's")
			}
			var first, tail time.Duration
			supersteps := 0
			m.WorksetElements.Store(0)
			b.ResetTimer()
			for range b.N {
				_, passes, err := engine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				supersteps += len(passes)
				if len(passes) > 0 {
					first += passes[0]
				}
				if len(passes) > 1 {
					tail += costSum(passes[1:])
				}
			}
			run := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(run)/float64(best), "cost_ratio")
			b.ReportMetric(float64(first)/float64(b.N)/float64(time.Millisecond), "first_ms")
			if par == 1 {
				p1 = run
			} else if p1 > 0 {
				b.ReportMetric(float64(run)/float64(p1), "par_ratio")
			}
			if steady > 0 {
				b.ReportMetric(float64(tail/time.Duration(b.N))/float64(steady), "steady_cost_ratio")
			}
			b.ReportMetric(float64(m.WorksetElements.Load())/float64(b.N), "workset/op")
			b.ReportMetric(float64(supersteps)/float64(b.N), "supersteps/op")
		})
	}
}

func costPasses(tr metrics.Trace) []time.Duration {
	out := make([]time.Duration, len(tr.Iterations))
	for i, it := range tr.Iterations {
		out[i] = it.Duration
	}
	return out
}

func costSum(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

// costPushPageRank is PageRank as one thread would write it: every
// iteration pushes each vertex's rank share along its out-edges.
func costPushPageRank(g *graphgen.Graph, iterations int, damping float64) ([]float64, []time.Duration) {
	n := g.NumVertices
	share := make([]float64, n) // damping / out-degree
	for _, e := range g.Edges {
		share[e.Src]++
	}
	for v, d := range share {
		if d > 0 {
			share[v] = damping / d
		}
	}
	rank, next := make([]float64, n), make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	passes := make([]time.Duration, iterations)
	for it := range passes {
		start := time.Now()
		for v := range next {
			next[v] = (1 - damping) / float64(n)
		}
		for _, e := range g.Edges {
			next[e.Dst] += rank[e.Src] * share[e.Src]
		}
		rank, next = next, rank
		passes[it] = time.Since(start)
	}
	return rank, passes
}

// costAdj is an undirected graph's adjacency in compressed rows.
type costAdj struct {
	off []int64
	dst []int64
}

func costCSR(und *graphgen.Graph) costAdj {
	a := costAdj{off: make([]int64, und.NumVertices+1), dst: make([]int64, len(und.Edges))}
	for _, e := range und.Edges {
		a.off[e.Src+1]++
	}
	for v := range und.NumVertices {
		a.off[v+1] += a.off[v]
	}
	fill := slices.Clone(a.off)
	for _, e := range und.Edges {
		a.dst[fill[e.Src]] = e.Dst
		fill[e.Src]++
	}
	return a
}

// costUnionFind labels every vertex with the least vertex of its
// component: union by least root over dense arrays, path halving.
func costUnionFind(g *graphgen.Graph) []int64 {
	parent := make([]int64, g.NumVertices)
	for v := range parent {
		parent[v] = int64(v)
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(e.Src), find(e.Dst)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	for v := range parent {
		parent[v] = find(int64(v))
	}
	return parent
}

// costLabelProp is the engine's incremental CC as one thread would write
// it: each pass, the vertices whose label fell in the previous pass offer
// that label to their neighbours, and a neighbour that takes it joins the
// next pass.
func costLabelProp(a costAdj) ([]int64, []time.Duration) {
	n := int64(len(a.off) - 1)
	label := make([]int64, n)
	active := make([]int64, n)
	for v := range label {
		label[v], active[v] = int64(v), int64(v)
	}
	queued := make([]bool, n)
	var sent, next []int64
	var passes []time.Duration
	for len(active) > 0 {
		start := time.Now()
		sent = sent[:0]
		for _, v := range active {
			sent = append(sent, label[v])
		}
		next = next[:0]
		for i, v := range active {
			for _, u := range a.dst[a.off[v]:a.off[v+1]] {
				if sent[i] < label[u] {
					label[u] = sent[i]
					if !queued[u] {
						queued[u] = true
						next = append(next, u)
					}
				}
			}
		}
		for _, u := range next {
			queued[u] = false
		}
		active, next = next, active
		passes = append(passes, time.Since(start))
	}
	return label, passes
}

// costDijkstra is single-source shortest paths over directed weighted
// edges with a binary heap; unreachable vertices stay +Inf.
func costDijkstra(n int64, edges []algorithms.WeightedEdge, source int64) []float64 {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.Src+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	adj := make([]algorithms.WeightedEdge, len(edges))
	fill := slices.Clone(off)
	for _, e := range edges {
		adj[fill[e.Src]] = e
		fill[e.Src]++
	}
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	h := &costHeap{{source, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(costItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range adj[off[it.v]:off[it.v+1]] {
			if d := it.d + e.Weight; d < dist[e.Dst] {
				dist[e.Dst] = d
				heap.Push(h, costItem{e.Dst, d})
			}
		}
	}
	return dist
}

type costItem struct {
	v int64
	d float64
}

type costHeap []costItem

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)        { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
