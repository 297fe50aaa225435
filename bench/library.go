package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// The library workloads: one complete fixpoint per operation, from
// in-memory input records to the converged, collected result (plan,
// session open, every superstep, collect). They have one operation class,
// so their expensive operation is the same fixpoint single-threaded
// (Parallelism 1): the baseline that shows what the parallel runtime buys
// and what its coordination costs.

// libInput is a generated library workload: the graph, a spec built from
// it through the public constructors, and a check of one run's solution.
type libInput struct {
	graph *graphgen.Graph
	// run executes one complete fixpoint and returns its solution.
	run func(cfg iterative.Config) ([]record.Record, error)
	// traced runs the same fixpoint with spans around each layer call.
	traced func(cfg iterative.Config, tr *tracer, root *span) ([]record.Record, error)
	// verify checks a solution against the oracle.
	verify func(sol []record.Record) error
	// plan and opts are what the run's planner call sees, for the probes.
	plan *dataflow.Plan
	opts func(par int) optimizer.Options
	// stepRecords is the input a bulk superstep consumes (0: the spans
	// carry each superstep's workset size).
	stepRecords int
}

func ccPowerlaw(e *env) *libInput {
	scale, edges, tail := 15, int64(1_100_000), int64(12)
	if e.tiny {
		scale, edges = 10, 12_000
	}
	r := newRNG(e.seed, 1)
	return ccInput(withTail(rmat(r, scale, edges, 0.57, 0.19, 0.19), tail))
}

func ccLongtail(e *env) *libInput {
	communities, size, chords := int64(400), int64(32), 24
	if e.tiny {
		communities, size, chords = 24, 32, 200
	}
	return ccInput(chained(newRNG(e.seed, 2), communities, size, chords))
}

// ccInput wraps the CoGroup-variant incremental Connected Components of
// Figure 5 over g, with mid-run re-optimization on (the long tail is where
// the planner and its cache are on the superstep path).
func ccInput(g *graphgen.Graph) *libInput {
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Reoptimize = true
	in := &libInput{graph: g, plan: spec.Plan,
		opts: func(par int) optimizer.Options { return incrementalOptions(&spec, par) }}
	in.run = func(cfg iterative.Config) ([]record.Record, error) {
		res, err := iterative.RunIncremental(spec, s0, w0, cfg)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	in.traced = func(cfg iterative.Config, tr *tracer, root *span) ([]record.Record, error) {
		sp := tr.start(root, "plan", layerOptimizer)
		phys, err := iterative.PlanIncremental(spec, cfg, 0)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.start(root, "open-session", layerRuntime)
		fx, err := iterative.OpenFixpointOn(spec, nil, cfg, phys, nil)
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.start(root, "solution-init", layerSolution)
		fx.Solution().Init(s0)
		sp.end()
		// The driver loop is the iterative layer; the barrier hooks bracket
		// each superstep (Δ evaluation + ∪̇ merge) as a runtime child, so
		// the drive span's self time is driver bookkeeping and re-planning.
		drive := tr.start(root, "drive", layerIterative)
		_, err = fx.RunDriven(w0, iterative.DriveHooks{Barrier: &spanBarrier{tr: tr, parent: drive, next: len(w0)}})
		drive.end()
		var sol []record.Record
		if err == nil {
			sp = tr.start(root, "collect", layerSolution)
			sol = fx.Solution().Snapshot()
			sp.end()
		}
		sp = tr.start(root, "close-session", layerRuntime)
		fx.Close()
		sp.end()
		return sol, err
	}
	// The oracle is the benchmark's, not the workload's: it is built on
	// first use, outside the timed set-up.
	var oracle map[int64]int64
	in.verify = func(sol []record.Record) error {
		if oracle == nil {
			oracle = unionFind(g.Edges, denseVertices(g.NumVertices))
		}
		return verifyCC(sol, oracle)
	}
	return in
}

// spanBarrier turns the driver's per-superstep barrier hooks into spans.
// It coordinates nothing: the global workset count is the local one.
type spanBarrier struct {
	tr     *tracer
	parent *span
	cur    *span
	// next is the size of the workset the coming superstep consumes.
	next int
}

func (b *spanBarrier) Release(step int) error {
	b.cur = b.tr.start(b.parent, "superstep", layerRuntime)
	return nil
}

func (b *spanBarrier) Collect(step, localNext int) (int, error) {
	b.cur.end()
	b.cur.Records = b.next
	b.next = localNext
	return localNext, nil
}

const pagerankIterations = 20

func pagerankBulk(e *env) *libInput {
	scale, edges := 16, int64(730_000)
	if e.tiny {
		scale, edges = 10, 9_000
	}
	g := rmat(newRNG(e.seed, 3), scale, edges, 0.45, 0.22, 0.22)
	spec, initial := algorithms.PageRankSpec(g, pagerankIterations, algorithms.DefaultDamping, 0)
	in := &libInput{graph: g, plan: spec.Plan, stepRecords: len(g.Edges) + int(g.NumVertices)}
	in.opts = func(par int) optimizer.Options {
		return optimizer.Options{Parallelism: par, ExpectedIterations: pagerankIterations,
			Feedback: map[int]int{spec.Input.ID: spec.Output.ID}, Fuse: true}
	}
	in.run = func(cfg iterative.Config) ([]record.Record, error) {
		res, err := iterative.RunBulk(spec, initial, cfg)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	// RunBulk is one call, so its inside is reconstructed from what it
	// reports: the planner's own PlanNanos counter and the per-iteration
	// durations of BulkResult.Trace, laid out back to back under the run.
	in.traced = func(cfg iterative.Config, tr *tracer, root *span) ([]record.Record, error) {
		cfg.CollectTrace = true
		before, started := cfg.Metrics.PlanNanos.Load(), time.Now()
		run := tr.start(root, "run-bulk", layerIterative)
		res, err := iterative.RunBulk(spec, initial, cfg)
		run.end()
		if err != nil {
			return nil, err
		}
		planned := time.Duration(cfg.Metrics.PlanNanos.Load() - before)
		tr.closed(run, "plan", layerOptimizer, started, planned)
		at := started.Add(planned)
		for _, it := range res.Trace.Iterations {
			tr.closed(run, "superstep", layerRuntime, at, it.Duration).Records = in.stepRecords
			at = at.Add(it.Duration)
		}
		return res.Solution, nil
	}
	var oracle []float64 // built on first use, outside the timed set-up
	in.verify = func(sol []record.Record) error {
		if oracle == nil {
			oracle = powerIteration(g, pagerankIterations, algorithms.DefaultDamping)
		}
		if len(sol) != len(oracle) {
			return fmt.Errorf("solution has %d ranks, oracle %d", len(sol), len(oracle))
		}
		for _, r := range sol {
			if want := oracle[r.A]; math.Abs(r.X-want) > 1e-9+1e-6*want {
				return fmt.Errorf("rank(%d) = %g, oracle %g", r.A, r.X, want)
			}
		}
		return nil
	}
	return in
}

// runLibrary measures a library workload: set-up a few times, one
// discarded warm-up run, then repetitions until the window closes.
func runLibrary(e *env, build func(*env) *libInput) (*outcome, error) {
	out := newOutcome()
	var in *libInput
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil // let the previous build's graph go before the next is made
		t0 := time.Now()
		in = build(e)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.size("vertices", in.graph.NumVertices)
	out.size("edges", in.graph.NumEdges())

	var m metrics.Counters
	cfg := iterative.Config{Parallelism: e.par, Metrics: &m}
	rep := func(cfg iterative.Config, traced bool) (float64, error) {
		out.attempted++
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		var sol []record.Record
		var err error
		if traced {
			root := e.tr.root("fixpoint", t0)
			sol, err = in.traced(cfg, e.tr, root)
			root.end()
		} else {
			sol, err = in.run(cfg)
		}
		d := time.Since(t0).Seconds()
		if err == nil {
			err = in.verify(sol)
		}
		if err != nil {
			out.failed++
			return 0, err
		}
		out.solution = sol
		return d, nil
	}

	if _, err := rep(cfg, false); err != nil { // warm-up, discarded
		return nil, err
	}
	if !e.traced {
		single := cfg
		single.Parallelism = 1
		var par, one []float64
		err := repeatFor(e.window(1), 3, func() error {
			d, err := rep(cfg, false)
			if err != nil {
				return err
			}
			par = append(par, d)
			d, err = rep(single, false)
			one = append(one, d)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.set("op_p50_ms", median(par)*1e3, len(par))
		out.set("heavy_p50_ms", median(one)*1e3, len(one))
		return out, nil
	}

	// Traced: plain, traced and Obs-on repetitions take turns, so the two
	// overheads are ratios between neighbours in time within one process.
	obsCfg := cfg
	obsCfg.Obs, obsCfg.TraceID = obs.NewRegistry(), obs.NewTraceID()
	// The traced repetitions count into their own counters, so the work
	// figures below are theirs alone.
	var tm metrics.Counters
	tracedCfg := cfg
	tracedCfg.Metrics = &tm
	var plain, tracedReps, obsReps []float64
	var alloc int64
	heap := startHeapWatch()
	err := repeatFor(e.window(1), 2, func() error {
		d, err := rep(cfg, false)
		if err != nil {
			return err
		}
		plain = append(plain, d)
		allocBefore := totalAlloc()
		if d, err = rep(tracedCfg, true); err != nil {
			return err
		}
		tracedReps = append(tracedReps, d)
		alloc += totalAlloc() - allocBefore
		d, err = rep(obsCfg, false)
		obsReps = append(obsReps, d)
		return err
	})
	out.set("peak_heap_mb", heap.stop(), 0)
	if err != nil {
		return nil, err
	}
	work, n := tm.Snapshot(), float64(len(tracedReps))
	out.set("trace_overhead_ratio", median(tracedReps)/median(plain), len(tracedReps))
	out.set("obs_overhead_ratio", median(obsReps)/median(plain), len(obsReps))
	out.set("replans_per_op", float64(work.GreedyPlans)/n, len(tracedReps))
	out.set("plan_cache_hits_per_op", float64(work.PlanCacheHits)/n, len(tracedReps))
	out.set("records_shipped_per_op", float64(work.RecordsShipped)/n, len(tracedReps))
	out.set("batches_allocated_per_op", float64(work.BatchesAllocated)/n, len(tracedReps))
	out.set("batches_recycled_per_op", float64(work.BatchesRecycled)/n, len(tracedReps))

	spans := e.tr.since(0)
	steps := named(spans, "superstep")
	var ms, small []float64
	var recs int
	var busy time.Duration
	for _, s := range steps {
		ms = append(ms, s.dur().Seconds()*1e3)
		recs += s.Records
		busy += s.dur()
		if s.Records < smallWorkset {
			small = append(small, s.dur().Seconds()*1e6)
		}
	}
	out.set("supersteps_per_op", float64(len(steps))/n, len(tracedReps))
	out.set("superstep_p50_ms", median(ms), len(ms))
	out.set("superstep_max_ms", percentile(ms, 1), len(ms))
	if recs > 0 {
		out.set("step_ns_per_record", float64(busy.Nanoseconds())/float64(recs), recs)
		out.set("alloc_bytes_per_record", float64(alloc)/float64(recs), recs)
	}
	out.set("step_overhead_us", median(small), len(small))
	out.budget = budgetOf(spans)
	return out, probeCommon(e, out, in.plan, in.opts(e.par))
}
