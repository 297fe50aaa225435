package iterative

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// This file is the single superstep driver every engine runs on. The
// paper's point is that bulk and incremental iterations are one dataflow
// abstraction differing only in step semantics; the code says the same
// thing structurally: the full superstep lifecycle — the loop itself,
// convergence, the re-optimize decision, and the obs histogram/span
// recording — lives here exactly once, and the two engines
// (bulk full recompute, incremental workset ∪̇ merge) are small
// EnginePolicy values supplying only their step semantics. Which engine
// runs is the caller's choice, as in the paper: RunBulk, RunIncremental,
// RunMicrostep (the incremental engine with direct merge required),
// ResumeIncremental/ResumeMicrostep, and Fixpoint (through it
// internal/live's sessions: views and distributed jobs) all drive this
// loop rather than keeping private copies of it.

// stepOutcome is what one EnginePolicy superstep reports back to the
// driver core.
type stepOutcome struct {
	// next is the local next-workset cardinality. In a coordinated
	// (distributed) run the driver converts it to the global count
	// through the Barrier before acting on it.
	next int
	// done is engine-declared termination independent of the workset:
	// bulk's criterion sink fell silent, its convergence callback fired,
	// or its fixed pass count was reached.
	done bool
	// compute is the superstep's compute wall time (the session run,
	// excluding the ∪̇ merge), recorded into the superstep-duration
	// histogram.
	compute time.Duration
}

// EnginePolicy supplies one engine's step semantics to the driver. The
// methods are unexported: engines live in this package; the driver calls
// them in a fixed lifecycle order (step → feed).
type EnginePolicy interface {
	// step executes one superstep. absStep is the absolute step index —
	// resident engines (Fixpoint) number supersteps continuously across
	// Run calls, so it is the trace/span step.
	step(absStep int) (stepOutcome, error)
	// feed installs the produced workset for the next superstep; called
	// only when the run continues, after any plan swap (placeholders
	// live on the executor, so they survive session swaps).
	feed()
}

// replanner is the optional EnginePolicy capability of an engine whose
// physical plan can be re-optimized mid-run (the incremental engine).
type replanner interface {
	// reoptimizeWanted reports whether the spec asked for mid-run
	// re-optimization.
	reoptimizeWanted() bool
	// replan plans for the collapsed workset estimate. Every process of a
	// coordinated run derives the identical plan from the identical
	// estimate.
	replan(est int64) (*optimizer.PhysPlan, error)
	// swap installs a re-optimized plan: invalidate the loop-invariant
	// caches, close the old session, open a new one (rebinding the
	// transport's routing state in distributed runs). It returns the
	// bytes of cached constant-path state it dropped, which the next
	// superstep refills.
	swap(phys *optimizer.PhysPlan) (dropped int64)
}

// Barrier coordinates the driver's supersteps across the processes of a
// distributed run. Release lets every peer start the step — it must be
// called before the local step runs, because the exchanges interlock:
// every process's consumers wait on every process's producers. Collect
// folds the local next-workset count into the global one; only the
// global count decides convergence, since a process's empty workset can
// refill entirely from its peers' shipped records.
type Barrier interface {
	Release(step int) error
	Collect(step, localNext int) (globalNext int, err error)
}

// DriveHooks couples a Fixpoint run to an external coordinator: the
// barrier that globalizes convergence, and the epoch hook that announces
// a decided re-optimization to the peers before the local session swaps.
type DriveHooks struct {
	// Barrier, if non-nil, coordinates each superstep across processes.
	Barrier Barrier
	// OnEpoch, if non-nil, is called when the driver has decided a
	// re-optimization to a different physical shape and planned phys for
	// the global workset estimate est (a re-plan that keeps the running
	// shape announces nothing): broadcast the new plan epoch, wait until
	// every peer has re-planned and swapped, and return nil — only then
	// does the local session swap and the next superstep start.
	OnEpoch func(epoch int, est int64, phys *optimizer.PhysPlan) error
}

// driver owns one run's superstep lifecycle. Exactly one for loop in
// this package drives supersteps: the one in run.
type driver struct {
	cfg    Config
	policy EnginePolicy

	maxSteps  int
	traceBase int // absolute index of this run's first superstep

	// worksetDriven runs convergence as "the (global) workset drained";
	// false for bulk, whose policy declares done itself.
	worksetDriven bool

	// reopt enables mid-run re-optimization when non-nil and the policy
	// is a replanner that wants it.
	reopt *reoptState
	hooks DriveHooks

	collect bool
	trace   *metrics.Trace

	// Outcomes.
	steps  int
	epochs int
}

// run drives supersteps to convergence or the step budget. It returns
// whether the run converged; budget exhaustion returns (false, nil) and
// the adapter wraps ErrNoProgress.
func (d *driver) run() (converged bool, err error) {
	rp, _ := d.policy.(replanner)
	// The per-superstep counter delta costs two reflective snapshots; take
	// them only when the trace consumes the delta.
	wantWork := d.cfg.Metrics != nil && d.collect
	for step := 0; step < d.maxSteps; step++ {
		if d.hooks.Barrier != nil {
			if err := d.hooks.Barrier.Release(step); err != nil {
				return false, err
			}
		}
		start := time.Now()
		var before metrics.Snapshot
		if wantWork {
			before = d.cfg.Metrics.Snapshot()
		}

		out, err := d.policy.step(d.traceBase + step)
		if err != nil {
			return false, err
		}
		d.steps = step + 1
		d.cfg.observeSuperstep(out.compute)
		dur := time.Since(start)
		var work metrics.Snapshot
		if wantWork {
			work = d.cfg.Metrics.Snapshot().Sub(before)
		}

		next := out.next
		if d.hooks.Barrier != nil {
			if next, err = d.hooks.Barrier.Collect(step, out.next); err != nil {
				return false, err
			}
		}
		if d.collect {
			d.trace.Add(metrics.IterationStat{
				Iteration: step, Duration: dur, Work: work,
			})
		}
		if out.done || (d.worksetDriven && next == 0) {
			return true, nil
		}
		if rp != nil && d.reopt != nil {
			if err := d.maybeReoptimize(rp, step, next); err != nil {
				return false, err
			}
		}
		d.policy.feed()
	}
	return false, nil
}

// reoptState carries the adaptive re-planning state of one running
// iteration: the estimate the current plan was costed with and the plan
// the session is executing. It persists across a Fixpoint's Run calls.
type reoptState struct {
	// cur is the plan the live session executes and shape its structural
	// fingerprint: a re-plan that yields the same shape keeps cur.
	cur        *optimizer.PhysPlan
	shape      string
	plannedEst int64
}

func newReoptState(cur *optimizer.PhysPlan, plannedEst int64) *reoptState {
	st := &reoptState{plannedEst: plannedEst}
	st.install(cur)
	return st
}

// install records phys as the plan the session now executes.
func (st *reoptState) install(phys *optimizer.PhysPlan) {
	st.cur, st.shape = phys, phys.Fingerprint()
}

// maybeReoptimize is the adaptive re-planning decision, owned by the
// driver: when the engine wants re-optimization and the working set has
// collapsed far below the size the current plan was costed with, Δ is
// re-planned for the remaining supersteps. What a swap costs is not the
// planning (microseconds) but refilling the constant-path caches under a
// fresh session, so the decision compares physical shapes, not plan
// objects: a re-plan whose optimizer.Fingerprint equals the running
// plan's is a pure no-op — no swap, no epoch announcement, caches and
// session stay warm — and only ratchets the planned estimate (plus a
// trace event). A genuinely different shape swaps a fresh session in; its
// trace event and swap-phase span name both shapes, the planners behind
// them and the cached bytes the swap dropped. Coordinated runs (OnEpoch
// set) announce the new plan epoch to every peer before swapping locally
// — peers only ever hear about real shape changes. A re-plan that fails
// fails the run, as it does on a worker applying the epoch.
func (d *driver) maybeReoptimize(rp replanner, step, next int) error {
	st := d.reopt
	if !rp.reoptimizeWanted() || int64(next)*16 >= st.plannedEst {
		return nil
	}
	newPhys, err := rp.replan(int64(next))
	if err != nil {
		return fmt.Errorf("iterative: re-plan at superstep %d: %w", d.traceBase+step, err)
	}
	st.plannedEst = int64(next)
	shape := newPhys.Fingerprint()
	if shape == st.shape {
		d.trace.AddEvent(step, fmt.Sprintf("re-planned for workset %d: shape unchanged", next))
		return nil
	}
	if d.hooks.OnEpoch != nil {
		if err := d.hooks.OnEpoch(d.epochs+1, int64(next), newPhys); err != nil {
			return fmt.Errorf("iterative: plan epoch %d: %w", d.epochs+1, err)
		}
	}
	if d.cfg.Metrics != nil {
		d.cfg.Metrics.Reoptimizations.Add(1)
	}
	start := time.Now()
	dropped := rp.swap(newPhys)
	what := fmt.Sprintf("reoptimized for workset %d: %s plan %s → %s plan %s, dropped %.1f MiB of cached constant-path state",
		next, st.cur.Planner, st.shape[:12], newPhys.Planner, shape[:12], float64(dropped)/(1<<20))
	d.trace.AddEvent(step, what)
	d.cfg.noteSwap(d.traceBase+step, start, what)
	st.install(newPhys)
	d.epochs++
	return nil
}

// ---------------------------------------------------------------------
// Incremental engine: one superstep evaluates Δ against (S, W), merges D
// into S with ∪̇, and produces the next working set. Shared by
// RunIncremental, RunMicrostep and Fixpoint (live maintenance,
// distributed jobs, ResumeIncremental, ResumeMicrostep).

type incEngine struct {
	spec     *IncrementalSpec
	cfg      Config
	expected int
	exec     *runtime.Executor
	tr       runtime.Transport
	sess     *runtime.Session
	// nextParts is the last step's produced workset, partition-aligned;
	// feed installs it.
	nextParts [][]record.Record
	// inadmissible is why direct merge is off for the bound spec (nil = on);
	// RunMicrostep and ResumeMicrostep refuse the spec with it.
	inadmissible error
	// fold is the workset fold of the session's plan (nil = none), which
	// seed applies to the working sets it installs.
	fold *dataflow.Node
	// elements counts the working-set elements seeded and produced — on a
	// converged run every one was consumed, and a microstep run reports
	// the count as Microsteps.
	elements int64
	// mergeLabels are the profiler labels the ∪̇ merge runs under,
	// {layer=solution, op=merge}, built once per engine.
	mergeLabels context.Context
}

// openIncEngine builds the executor and session for an already-planned
// incremental spec: sol becomes the resident solution set and the session
// hosts this process's partitions on tr (nil = everything in-process).
func openIncEngine(spec *IncrementalSpec, sol *runtime.SolutionSet, cfg Config, expected int,
	phys *optimizer.PhysPlan, tr runtime.Transport) *incEngine {
	exec := runtime.NewExecutor(cfg.runtimeConfig())
	exec.Solution = sol
	en := &incEngine{cfg: cfg, exec: exec, tr: tr,
		mergeLabels: pprof.WithLabels(context.Background(), pprof.Labels("layer", "solution", "op", "merge"))}
	en.bind(spec, expected)
	en.open(phys)
	return en
}

// open opens the session for phys and adopts the plan's workset fold.
func (en *incEngine) open(phys *optimizer.PhysPlan) {
	en.sess = en.exec.OpenSessionOn(phys, en.tr)
	en.fold = en.spec.worksetFold(phys)
}

// bind points the engine at spec and is the one place that decides direct
// merge: it is on exactly when the Δ flow meets the §5.2 conditions (later
// working-set elements then observe earlier updates within a superstep,
// pruning redundant candidates at the source).
func (en *incEngine) bind(spec *IncrementalSpec, expected int) {
	en.spec, en.expected = spec, expected
	_, en.inadmissible = ValidateMicrostep(*spec)
	en.exec.DirectMerge = en.inadmissible == nil
}

// seed installs the initial working set, partitioned on the workset key
// and, when the plan folds the workset, folded by the same fold.
func (en *incEngine) seed(w []record.Record) {
	id := en.spec.Workset.ID
	n := len(w)
	if en.fold != nil {
		en.exec.SetPlaceholderFolded(id, w, en.cfg.Parallelism, en.fold)
		n = 0
		for _, p := range en.exec.Placeholder[id] {
			n += len(p)
		}
	} else {
		en.exec.SetPlaceholder(id, w, en.spec.WorksetKey, en.cfg.Parallelism)
	}
	en.elements += int64(n)
	if en.cfg.Metrics != nil {
		en.cfg.Metrics.WorksetElements.Add(int64(n))
	}
}

func (en *incEngine) step(absStep int) (stepOutcome, error) {
	start := time.Now()
	// Keeps span numbering continuous across re-plan session swaps and
	// a Fixpoint's successive maintenance runs.
	en.sess.SetTraceStep(absStep)
	res, err := en.sess.Run()
	if err != nil {
		return stepOutcome{}, err
	}
	compute := time.Since(start)

	// S ∪̇ D — applied after the superstep so that every access inside
	// the superstep observed S_i (§5.3: "we cache the records in the
	// delta set D until the end of the superstep").
	// It runs under the solution layer's profiler labels, which come off
	// again after it, as the runtime's serial lane takes its own off.
	mergeStart := time.Now()
	pprof.SetGoroutineLabels(en.mergeLabels)
	en.exec.Solution.MergeDelta(res.Records(en.spec.DeltaSink.ID))
	pprof.SetGoroutineLabels(context.Background())
	en.cfg.noteMerge(absStep, mergeStart)
	if err := en.exec.Solution.Err(); err != nil {
		return stepOutcome{}, err
	}

	en.nextParts = res[en.spec.WorksetSink.ID]
	count := 0
	for _, p := range en.nextParts {
		count += len(p)
	}
	en.elements += int64(count)
	if en.cfg.Metrics != nil {
		en.cfg.Metrics.WorksetElements.Add(int64(count))
	}
	return stepOutcome{next: count, compute: compute}, nil
}

// feed re-enters the produced workset: the sink is partition-pinned on
// the workset key, so its partitions re-enter directly — the paper's
// partitioned queues.
func (en *incEngine) feed() {
	en.exec.SetPlaceholderParts(en.spec.Workset.ID, en.nextParts)
}

func (en *incEngine) reoptimizeWanted() bool { return en.spec.Reoptimize }

// replan plans Δ for a collapsed workset estimate.
func (en *incEngine) replan(est int64) (*optimizer.PhysPlan, error) {
	return optimizeIncrementalWithEst(en.spec, en.cfg, en.expected, est, true)
}

// swap installs a re-optimized plan mid-run (or, from Fixpoint.Rebind, the
// plan of a new spec): the loop-invariant caches are dropped (their slots
// are keyed by the old plan's node IDs), the old session closes, the
// transport's per-edge routing state is rebound to the new plan's edge
// count, and a fresh session opens. The solution set and the executor's
// placeholders survive untouched.
func (en *incEngine) swap(phys *optimizer.PhysPlan) (dropped int64) {
	dropped = en.exec.CachedBytes()
	en.exec.Close()
	en.sess.Close()
	if rb, ok := en.tr.(runtime.Rebinder); ok {
		rb.Rebind(phys.NumEdges)
	}
	en.open(phys)
	return dropped
}

// close releases the session and the executor's caches; the solution
// set stays readable.
func (en *incEngine) close() {
	en.sess.Close()
	en.exec.Close()
}

// ---------------------------------------------------------------------
// Bulk engine: one step is a full recomputation pass of G over the
// previous partial solution, with the engine's own termination criteria
// (silent criterion sink, driver-side convergence test, fixed count).

type bulkPolicy struct {
	spec      *BulkSpec
	cfg       Config
	exec      *runtime.Executor
	sess      *runtime.Session
	phKey     record.KeyFunc
	prev      []record.Record
	next      []record.Record
	nextParts [][]record.Record
}

func (b *bulkPolicy) step(absStep int) (stepOutcome, error) {
	start := time.Now()
	if b.spec.Unroll && absStep > 0 {
		// Unrolled execution: a new instance of G per pass (§4.2) —
		// drop every loop-invariant cache before re-running. The
		// session detects the generation change and rewires.
		b.exec.Close()
	}
	b.sess.SetTraceStep(absStep)
	res, err := b.sess.Run()
	if err != nil {
		return stepOutcome{}, err
	}
	b.nextParts = res[b.spec.Output.ID]
	next := res.Records(b.spec.Output.ID)

	done := false
	if b.spec.Termination != nil && len(res.Records(b.spec.Termination.ID)) == 0 {
		done = true
	}
	if b.spec.Converged != nil && b.spec.Converged(b.prev, next) {
		done = true
	}
	if b.spec.FixedIterations > 0 && absStep+1 >= b.spec.FixedIterations {
		done = true
	}
	b.prev, b.next = next, next
	return stepOutcome{done: done, compute: time.Since(start)}, nil
}

// feed closes the loop: O becomes the next I. When the loop-closing
// property grant holds, O's partitions are already laid out correctly
// and re-enter without reshuffling.
func (b *bulkPolicy) feed() {
	if b.phKey != nil {
		b.exec.SetPlaceholderParts(b.spec.Input.ID, b.nextParts)
	} else {
		b.exec.SetPlaceholder(b.spec.Input.ID, b.next, nil, b.cfg.Parallelism)
	}
}
