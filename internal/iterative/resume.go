package iterative

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Fixpoint is a *resident* incremental iteration: the optimized Δ plan,
// its persistent partition-pinned session, and the attached solution set,
// kept open between runs. Where RunIncremental computes one fixpoint and
// tears everything down, a Fixpoint lets a converged solution set absorb
// later workset deltas through warm restarts — the paper's observation
// that (S, W) is exactly the state needed to maintain a fixpoint, not
// just to compute it. The live maintenance service (internal/live) is
// built on this type: every host of a sharded session — a live view or a
// one-shot distributed job — holds one; the coordinator drives its
// Fixpoint through RunDriven with a barrier and an epoch hook, workers
// through StepOnce/ApplyEpoch under the coordinator's control messages.
//
// A Fixpoint is not safe for concurrent Run calls; callers serialize
// maintenance (the live scheduler does so per view).
type Fixpoint struct {
	spec IncrementalSpec
	cfg  Config
	en   *incEngine
	// reopt persists across Run calls: the running plan's shape and the
	// estimate it was costed with.
	reopt *reoptState
	// traceStep numbers supersteps continuously across Run calls, so a
	// live view's maintenance flushes produce distinct steps in its trace.
	traceStep int
}

// optimizeIncrementalWithEst plans Δ with the given workset-cardinality
// estimate, restoring the node's original estimate afterwards: the plan
// node may be shared with later runs of the same spec (live view
// recomputes, difftest loops), which must plan from their own initial
// statistics rather than this run's final workset size.
// reopt marks a mid-run re-plan (see incrementalOptions).
func optimizeIncrementalWithEst(spec *IncrementalSpec, cfg Config, expected int, est int64, reopt bool) (*optimizer.PhysPlan, error) {
	saved := spec.Workset.EstRecords
	if est > 0 {
		spec.Workset.EstRecords = est
	}
	defer func() { spec.Workset.EstRecords = saved }()
	return optimizeIncremental(spec, cfg, expected, reopt)
}

// incrementalOptions builds the optimizer options for an incremental spec
// with the workset feedback and sink partitioning RunIncremental uses.
// reopt selects the planner leg of PlannerAuto (greedy for mid-run
// re-optimizations, cost-based otherwise).
func incrementalOptions(spec *IncrementalSpec, cfg Config, expected int, reopt bool) optimizer.Options {
	return optimizer.Options{
		Parallelism:        cfg.Parallelism,
		Hosts:              cfg.Hosts,
		ExpectedIterations: expected,
		PlaceholderProps: map[int]optimizer.Props{
			spec.Workset.ID: {Part: record.KeyID(spec.WorksetKey)},
		},
		SinkPartition: map[int]record.KeyFunc{
			spec.DeltaSink.ID:   spec.SolutionKey,
			spec.WorksetSink.ID: spec.WorksetKey,
		},
		Feedback:  map[int]int{spec.Workset.ID: spec.WorksetSink.ID},
		JoinHints: spec.JoinHints,
		Planner:   plannerFor(cfg, reopt),
		Fuse:      !cfg.DisableFusion,
	}
}

// optimizeIncremental runs the optimizer for an incremental spec's initial
// plan, or a mid-run re-plan when reopt is set, under the planner's
// profiler labels, recording planning metrics.
func optimizeIncremental(spec *IncrementalSpec, cfg Config, expected int, reopt bool) (*optimizer.PhysPlan, error) {
	opts := incrementalOptions(spec, cfg, expected, reopt)
	defer labelPlanning(opts.Planner)()
	start := time.Now()
	phys, err := optimizer.Optimize(spec.Plan, opts)
	if err != nil {
		return nil, err
	}
	spec.planWorksetFold(phys)
	notePlanned(cfg, opts.Planner, phys, time.Since(start))
	return phys, nil
}

// PlanIncremental runs the optimizer for an incremental spec exactly as
// RunIncremental would, without executing anything. The distributed
// driver uses it so every process of a session derives the same physical
// plan from the same spec and config; expected ≤ 0 applies the spec's own
// weight (ExpectedIterations, else 10).
func PlanIncremental(spec IncrementalSpec, cfg Config, expected int) (*optimizer.PhysPlan, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if expected <= 0 {
		expected = spec.expected()
	}
	return optimizeIncremental(&spec, cfg, expected, false)
}

// OpenFixpointOn opens a resident fixpoint over an already-optimized
// plan and an optional transport: the distributed layer plans once per
// process (every process derives the identical plan from the identical
// spec) and hosts only its own partition range on the meshed transport.
// A nil transport hosts everything in-process; a nil sol creates an
// empty solution set from the Config.
func OpenFixpointOn(spec IncrementalSpec, sol *runtime.SolutionSet, cfg Config,
	phys *optimizer.PhysPlan, tr runtime.Transport) (*Fixpoint, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if sol != nil && sol.Parallelism() != cfg.Parallelism {
		return nil, fmt.Errorf("iterative: adopted solution set has %d partitions, config wants %d",
			sol.Parallelism(), cfg.Parallelism)
	}
	if sol == nil {
		sol = runtime.NewSolutionSetWith(cfg.Parallelism, spec.SolutionKey, spec.Comparator, cfg.Metrics, cfg.SolutionMemoryBudget)
	}
	f := &Fixpoint{spec: spec, cfg: cfg,
		reopt: newReoptState(phys, spec.Workset.EstRecords)}
	f.en = openIncEngine(&f.spec, sol, cfg, spec.expected(), phys, tr)
	return f, nil
}

// Solution returns the resident solution set. It stays valid across Run
// calls and after Close, so converged state outlives the session.
func (f *Fixpoint) Solution() *runtime.SolutionSet { return f.en.exec.Solution }

// Plan returns the optimized physical plan the session executes (the
// re-optimized one after a mid-run plan swap).
func (f *Fixpoint) Plan() *optimizer.PhysPlan { return f.reopt.cur }

// InvalidateConstants drops the session's loop-invariant caches (edge
// tables, cached join build sides). Call it after mutating the data behind
// a Source node of the Δ plan: the next Run re-materializes the constant
// path from the current data, while workers, exchanges and pooled batches
// stay warm.
func (f *Fixpoint) InvalidateConstants() { f.en.exec.Close() }

// PatchConstants is the delta form of InvalidateConstants for one Source
// node: its cached tables are edited in place (runtime.Executor.PatchSource)
// and nothing is re-materialized. False means the plan cannot be patched
// and nothing changed.
func (f *Fixpoint) PatchConstants(src *dataflow.Node, add, remove []record.Record) bool {
	return f.en.exec.PatchSource(f.reopt.cur, src, add, remove)
}

// Rebind re-optimizes a structurally new spec and swaps in a fresh session
// for it, keeping the executor, the transport (rebound to the new plan's
// edge count; every peer must Rebind at the same barrier) and the resident
// solution set. Live views use it for full recomputes and when the graph
// has drifted so far from the planned statistics that the old physical
// plan is no longer credible.
func (f *Fixpoint) Rebind(spec IncrementalSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	expected := spec.expected()
	phys, err := optimizeIncremental(&spec, f.cfg, expected, false)
	if err != nil {
		return err
	}
	f.spec = spec
	f.reopt = newReoptState(phys, spec.Workset.EstRecords)
	f.en.bind(&f.spec, expected)
	f.en.swap(phys)
	return nil
}

// SeedWorkset installs a working set without running anything — the
// distributed layer seeds every process's share before the coordinator
// releases the first superstep.
func (f *Fixpoint) SeedWorkset(workset []record.Record) {
	f.en.seed(workset)
	if f.reopt.plannedEst == 0 {
		f.reopt.plannedEst = int64(len(workset))
	}
}

// StepOnce runs exactly one superstep (evaluate Δ, merge D with ∪̇, feed
// the produced workset back) and returns the local next-workset count.
// It is the worker half of a coordinated run: convergence and
// re-optimization decisions belong to whoever drives the steps — the
// produced workset is always fed back, because an empty local workset
// can refill from the peers' shipped records.
func (f *Fixpoint) StepOnce() (int, error) {
	out, err := f.en.step(f.traceStep)
	if err != nil {
		return 0, err
	}
	f.traceStep++
	f.cfg.observeSuperstep(out.compute)
	f.en.feed()
	return out.next, nil
}

// ApplyEpoch re-plans Δ for the given global workset estimate and atomically swaps the session onto the new plan —
// the worker half of a coordinated plan-epoch bump. Every process of a
// distributed run calls it with the same estimate the coordinator's
// driver decided on, derives the identical plan, and the coordinator
// verifies the plan digests agree before releasing the next superstep.
func (f *Fixpoint) ApplyEpoch(est int64) (*optimizer.PhysPlan, error) {
	phys, err := f.en.replan(est)
	if err != nil {
		return nil, err
	}
	f.en.swap(phys)
	f.reopt.install(phys)
	f.reopt.plannedEst = est
	return phys, nil
}

// RunDriven drives the session from the given workset to the fixpoint —
// Run with coordination hooks: every superstep evaluates Δ, merges the
// delta set into the resident solution with ∪̇, and feeds the produced
// workset back, until the (global, when a Barrier is hooked in) workset
// is empty. The result's Solution slice is left nil (snapshotting the
// whole set on every maintenance batch would defeat the point of warm
// restarts); read the state through Solution(), or the result's Set
// handle.
func (f *Fixpoint) RunDriven(workset []record.Record, hooks DriveHooks) (*IncrementalResult, error) {
	maxSteps := f.spec.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	if f.reopt.plannedEst == 0 {
		f.reopt.plannedEst = int64(len(workset))
	}
	f.en.seed(workset)
	out := &IncrementalResult{Plan: f.reopt.cur, Set: f.en.exec.Solution}
	d := &driver{
		cfg: f.cfg, policy: f.en, maxSteps: maxSteps, worksetDriven: true,
		traceBase: f.traceStep,
		reopt:     f.reopt,
		hooks:     hooks,
		collect:   f.cfg.CollectTrace, trace: &out.Trace,
	}
	converged, err := d.run()
	f.traceStep += d.steps
	out.Supersteps = d.steps
	out.PlanEpochs = d.epochs
	out.Plan = f.reopt.cur
	if err != nil {
		return nil, err
	}
	if converged {
		return out, nil
	}
	return out, fmt.Errorf("%w after %d supersteps", ErrNoProgress, maxSteps)
}

// Run drives the session from the given workset to the fixpoint (see
// RunDriven; Run is the uncoordinated single-process form).
func (f *Fixpoint) Run(workset []record.Record) (*IncrementalResult, error) {
	return f.RunDriven(workset, DriveHooks{})
}

// Close releases the session and the executor's caches. The solution set
// is untouched and remains readable (and adoptable by a later
// OpenFixpointOn).
func (f *Fixpoint) Close() { f.en.close() }
