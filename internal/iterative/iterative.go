// Package iterative implements the paper's contribution: iteration
// operators embedded in parallel dataflows.
//
//   - Bulk iterations (§4): an operator (G, I, O, T) whose step function G
//     is a dataflow; executed with the feedback-channel strategy — the
//     executor persists across passes, loop-invariant inputs stay cached,
//     and only the dynamic data path re-runs.
//   - Incremental iterations (§5): an operator (Δ, S0, W0) with a
//     partitioned, indexed solution set S, a working set W, and a step
//     function Δ producing the delta set D and the next working set;
//     S ∪̇ D applies point updates between supersteps.
//   - Microstep iterations (§5.2): incremental iterations whose Δ meets
//     the record-at-a-time/locality conditions write each delta into S
//     the moment it is produced, so later working-set elements see it.
//     This is not a third engine: the incremental engine turns direct
//     merge on for every admissible Δ, and RunMicrostep only makes the
//     admissibility check mandatory (microstep.go).
//
// As in the paper, the caller picks the iteration form; the optimizer
// (§4.3) picks plans within it. Every form runs on one superstep driver
// (driver.go): a single loop owning session lifecycle, convergence, the
// reoptimize decision, and span recording. An engine
// contributes only an EnginePolicy (what one step computes: bulk = full
// recompute, incremental = Δ then S ∪̇ D), and a deployment contributes
// only DriveHooks: a Barrier that globalizes per-process workset counts
// and an OnEpoch callback that coordinates plan swaps across processes —
// nil hooks mean single-process, where local counts are global. There
// are five entry points, all thin adapters over that core: RunBulk,
// RunIncremental and RunMicrostep compute one fixpoint; PlanIncremental
// plus OpenFixpointOn open a resident Fixpoint that later workset deltas
// warm-restart (resume.go), which is how internal/live maintains views.
package iterative

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Config controls iteration execution.
type Config struct {
	// Parallelism is the number of partitions.
	Parallelism int
	// Metrics receives work counters (optional; required for traces).
	Metrics *metrics.Counters
	// CollectTrace records per-iteration statistics.
	CollectTrace bool
	// SolutionMemoryBudget bounds the resident bytes of an incremental
	// iteration's solution set (serialized-form estimate). Zero keeps it
	// in the compact in-memory index. A positive budget makes that index
	// spillable: cold partitions are evicted to disk through the batch
	// codec and reloaded on access, with SolutionSpills/SolutionReloads
	// counting the traffic (§4.3's gradual spilling applied to iteration
	// state).
	SolutionMemoryBudget int64
	// Planner selects the plan optimizer. The default (PlannerAuto) plans
	// the initial run with the cost-based enumerator and mid-run
	// re-optimizations with the greedy zero-statistics fast path — there,
	// planning latency sits on the superstep path. PlannerCost or
	// PlannerGreedy pin one planner for both. Programs keep the default;
	// the planner differential pins PlannerCost for its reference plan.
	Planner optimizer.PlannerKind
	// DisableFusion turns off the operator-fusion rewrite. By default
	// chains of adjacent Map operators on forward edges collapse into
	// single fused nodes executed record-at-a-time. Programs always fuse;
	// the planner differential's reference plan runs unfused.
	DisableFusion bool
	// Hosts is the number of processes the plan's partitions will be
	// spread over (distributed sessions). 0 or 1 plans for the default
	// single-process topology. Every process of a distributed session
	// must plan with the same Hosts value to produce identical plans.
	Hosts int
	// Obs, if set, is the telemetry registry this run reports into:
	// superstep/merge/plan latency histograms, and phase spans recorded
	// into its ring (see internal/obs). Nil disables all of it — the
	// instrumented paths cost one branch each.
	Obs *obs.Registry
	// TraceID groups this run's spans across processes; mint one with
	// obs.NewTraceID, or adopt a coordinator's. Only meaningful with Obs.
	TraceID obs.TraceID
	// TraceLabel names the run on its spans (a job or view name).
	TraceLabel string
	// Host is this process's host ID stamped on spans (0 single-process).
	Host int
}

// normalize validates and default-fills a Config exactly once, at every
// public Run*/Plan*/Open* entry point: negative knobs are
// rejected (they are always caller bugs, and silently clamping them hid
// the bug), zero means "use the default".
func (c Config) normalize() (Config, error) {
	if c.Parallelism < 0 {
		return c, fmt.Errorf("iterative: negative Parallelism %d", c.Parallelism)
	}
	if c.SolutionMemoryBudget < 0 {
		return c, fmt.Errorf("iterative: negative SolutionMemoryBudget %d", c.SolutionMemoryBudget)
	}
	if c.Hosts < 0 {
		return c, fmt.Errorf("iterative: negative Hosts %d", c.Hosts)
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	return c, nil
}

// runtimeConfig builds the executor config, threading telemetry through
// when an Obs registry is attached.
func (c Config) runtimeConfig() runtime.Config {
	rc := runtime.Config{Metrics: c.Metrics}
	if c.Obs != nil {
		rc.Trace = c.Obs.Trace()
		rc.TraceID = c.TraceID
		rc.TraceLabel = c.TraceLabel
		rc.Host = c.Host
	}
	return rc
}

// observeSuperstep records one superstep's wall time in the registry's
// superstep-duration histogram.
func (c Config) observeSuperstep(d time.Duration) {
	if c.Obs != nil {
		c.Obs.Histogram("superstep_duration").Observe(d)
	}
}

// noteMerge records the S ∪̇ D merge that followed the given superstep: a
// merge-phase span plus a merge-duration histogram sample.
func (c Config) noteMerge(step int, start time.Time) {
	if c.Obs == nil {
		return
	}
	d := time.Since(start)
	c.Obs.Histogram("merge_duration").Observe(d)
	c.Obs.Trace().RecordSpan(obs.Span{
		Trace: c.TraceID, Host: int32(c.Host), Part: -1, Step: int32(step),
		Phase: obs.PhaseMerge, Start: start.UnixNano(), Dur: int64(d),
		Label: c.TraceLabel,
	})
}

// noteSwap records a mid-run plan swap that started at start as a
// swap-phase span labelled what.
func (c Config) noteSwap(step int, start time.Time, what string) {
	if c.Obs == nil {
		return
	}
	c.Obs.Trace().RecordSpan(obs.Span{
		Trace: c.TraceID, Host: int32(c.Host), Part: -1, Step: int32(step),
		Phase: obs.PhaseSwap, Start: start.UnixNano(), Dur: int64(time.Since(start)),
		Label: what,
	})
}

// ErrNoProgress is returned when an iteration hits its step budget.
var ErrNoProgress = errors.New("iterative: iteration exceeded its superstep budget")

// BulkSpec describes a bulk iteration (G, I, O, T) (§4.1).
type BulkSpec struct {
	// Plan is the step-function dataflow G (including the sinks below).
	Plan *dataflow.Plan
	// Input is the IterationInput placeholder I carrying the previous
	// partial solution into G.
	Input *dataflow.Node
	// Output is the sink O producing the next partial solution.
	Output *dataflow.Node
	// Termination, if non-nil, is the criterion sink T: the iteration
	// continues as long as T emits at least one record and stops when it
	// is silent (e.g. PageRank's "rank moved more than ε" Match, Fig. 3).
	Termination *dataflow.Node
	// Converged, if non-nil, is a driver-side termination criterion
	// comparing consecutive partial solutions.
	Converged func(prev, next []record.Record) bool
	// FixedIterations, if > 0, runs exactly n passes ((G, I, O, n) form).
	FixedIterations int
	// MaxIterations bounds criterion-driven runs (default 1000).
	MaxIterations int
	// JoinHints optionally pins join strategies (see optimizer.JoinHint),
	// used to force a specific Figure-4 plan.
	JoinHints map[int]optimizer.JoinHint
}

// BulkResult is the outcome of a bulk iteration.
type BulkResult struct {
	// Solution is the final partial solution (contents of O).
	Solution []record.Record
	// Iterations is the number of executed passes.
	Iterations int
	// Trace holds per-iteration stats when Config.CollectTrace is set.
	Trace metrics.Trace
	// Plan is the physical plan that was executed.
	Plan *optimizer.PhysPlan
}

// RunBulk executes a bulk iteration with the feedback-channel strategy:
// one Executor persists across all passes so the constant data path is
// evaluated (and cached) once, while I is re-bound to the previous pass's
// O before every pass (§4.2).
func RunBulk(spec BulkSpec, initial []record.Record, cfg Config) (*BulkResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if spec.Input == nil || spec.Output == nil {
		return nil, fmt.Errorf("iterative: bulk spec needs Input and Output nodes")
	}
	maxIter := spec.MaxIterations
	if spec.FixedIterations > 0 {
		maxIter = spec.FixedIterations
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	// The optimizer weighs the dynamic path by the passes it expects.
	expected := spec.FixedIterations
	if expected <= 0 {
		expected = expectedPasses
	}
	// Plan with the initial-solution cardinality when the caller gave no
	// estimate — but only for the optimizer call: the node may be shared
	// by later runs of the same spec, which must plan from their own
	// initial statistics, not this run's.
	est := spec.Input.EstRecords
	if est == 0 {
		est = int64(len(initial))
	}
	savedEst := spec.Input.EstRecords
	spec.Input.EstRecords = est
	opts := optimizer.Options{
		Parallelism:        cfg.Parallelism,
		ExpectedIterations: expected,
		Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		JoinHints:          spec.JoinHints,
		Planner:            plannerFor(cfg, false),
		Fuse:               !cfg.DisableFusion,
	}
	resetLabels := labelPlanning(opts.Planner, context.Background())
	planStart := time.Now()
	phys, err := optimizer.Optimize(spec.Plan, opts)
	resetLabels()
	spec.Input.EstRecords = savedEst
	if err != nil {
		return nil, err
	}
	notePlanned(cfg, opts.Planner, phys, time.Since(planStart))

	exec := runtime.NewExecutor(cfg.runtimeConfig())
	defer exec.Close()
	phKey := phys.PlaceholderKey(spec.Input.ID)
	exec.SetPlaceholder(spec.Input.ID, initial, phKey, cfg.Parallelism)

	// One session serves every pass: the partition-pinned workers,
	// exchanges, and batch pool persist until convergence, so only the
	// first pass pays plan-setup costs (§4.2's feedback-channel model at
	// the physical layer).
	sess := exec.OpenSession(phys)
	defer sess.Close()

	out := &BulkResult{Plan: phys}
	b := &bulkPolicy{spec: &spec, cfg: cfg, exec: exec, sess: sess, phKey: phKey, prev: initial}
	d := &driver{
		cfg: cfg, policy: b, maxSteps: maxIter,
		collect: cfg.CollectTrace, trace: &out.Trace,
	}
	converged, err := d.run()
	out.Iterations = d.steps
	out.Solution = b.solution()
	if err != nil {
		return nil, err
	}
	if converged || spec.FixedIterations > 0 {
		return out, nil
	}
	// Budget exhausted: return the partial result so capped experiment
	// runs (e.g. "first 20 iterations of Webbase", Fig. 9) remain usable.
	return out, fmt.Errorf("%w after %d iterations", ErrNoProgress, maxIter)
}

// IncrementalSpec describes an incremental iteration (Δ, S0, W0) (§5.1).
// The Δ dataflow reads the workset placeholder and the solution set
// (through SolutionJoin/SolutionCoGroup operators) and feeds two sinks:
// the delta set D and the next workset.
type IncrementalSpec struct {
	// Plan is the Δ dataflow.
	Plan *dataflow.Plan
	// Workset is the IterationInput placeholder for W.
	Workset *dataflow.Node
	// DeltaSink collects D, merged into S with ∪̇ after each superstep.
	DeltaSink *dataflow.Node
	// WorksetSink collects the next working set.
	WorksetSink *dataflow.Node
	// SolutionKey identifies records in S (k(s)).
	SolutionKey record.KeyFunc
	// WorksetKey partitions W compatibly with S for the stateful join.
	WorksetKey record.KeyFunc
	// Comparator optionally arbitrates ∪̇ replacements (§5.1): the
	// CPO-larger record survives. Nil = delta always replaces.
	Comparator record.Comparator
	// BestCandidateOnly declares that Δ's solution update reads only the
	// best working-set record per WorksetKey under Comparator (which it
	// then requires): any set of candidates for one key may be replaced by
	// its best one before Δ sees it, as ∪̇ would replace them. The engine
	// then folds W0 per key as it partitions it, and the optimizer may
	// absorb the same keep-the-better fold into the operator producing the
	// next working set (optimizer.FoldWorkset), so each partition ships at
	// most one record per key. The fold keeps the first of records that
	// tie, so the declaration is byte-exact only when tied records are
	// identical (CC's {vid, cid}, SSSP's {vid, dist}); and a Δ that sums,
	// counts or otherwise reads more than the best candidate must not
	// declare it. The fold is never planned while direct merge is on
	// (ValidateMicrostep admits Δ), which prunes candidates at the source.
	BestCandidateOnly bool
	// MaxSupersteps bounds the run (default 10000).
	MaxSupersteps int
	// Reoptimize re-plans Δ mid-run when the working set shrinks far
	// below the size the current plan was costed with. The paper's §4.3
	// notes that "in the general case, a different plan may be optimal
	// for every iteration" but settles for the first-iteration heuristic;
	// this extension re-runs the optimizer when the estimate is off by
	// more than an order of magnitude, at the cost of re-building the
	// loop-invariant caches once.
	Reoptimize bool
}

// IncrementalResult is the outcome of an incremental or microstep run.
type IncrementalResult struct {
	// Solution is the converged solution set.
	Solution []record.Record
	// Supersteps is the number of executed supersteps.
	Supersteps int
	// Microsteps counts the working-set elements consumed (reported by
	// RunMicrostep only).
	Microsteps int64
	// PlanEpochs counts the mid-run re-optimizations that actually swapped
	// in a new plan (in a distributed run: coordinated plan-epoch bumps).
	PlanEpochs int
	// Trace holds per-superstep stats when Config.CollectTrace is set.
	Trace metrics.Trace
	// Plan is the physical plan the last superstep ran: the initial plan,
	// or the one a mid-run re-optimization swapped in.
	Plan *optimizer.PhysPlan
	// Set is the resident solution set that produced Solution. It remains
	// valid after the run (sessions close, state survives) and can be
	// adopted by OpenFixpointOn — the warm-restart handoff.
	Set *runtime.SolutionSet
}

// expectedPasses is the optimizer's dynamic-path weight for an iteration
// with no fixed pass count: the passes it expects to run.
const expectedPasses = 10

func (s *IncrementalSpec) validate() error {
	if s.Workset == nil || s.DeltaSink == nil || s.WorksetSink == nil {
		return fmt.Errorf("iterative: incremental spec needs Workset, DeltaSink and WorksetSink")
	}
	if s.SolutionKey == nil || s.WorksetKey == nil {
		return fmt.Errorf("iterative: incremental spec needs SolutionKey and WorksetKey")
	}
	if s.BestCandidateOnly && s.Comparator == nil {
		return fmt.Errorf("iterative: BestCandidateOnly needs a Comparator")
	}
	return nil
}

// planWorksetFold absorbs the keep-the-better fold into phys when s
// declares BestCandidateOnly, direct merge is off and the optimizer finds
// that the fold pays (optimizer.FoldWorkset). The key-count estimate is the
// solution operator's: one record per key it updates. The fold declares
// its aggregate (dataflow.Node.Better is the spec's Comparator), so it has
// no UDF: every combiner and the seed fold run it as the runtime's
// keep-the-better kernel.
func (s *IncrementalSpec) planWorksetFold(phys *optimizer.PhysPlan) {
	if !s.BestCandidateOnly || len(s.DeltaSink.Inputs) != 1 {
		return
	}
	if _, err := ValidateMicrostep(*s); err == nil {
		return
	}
	fold := &dataflow.Node{
		// One past the plan's own nodes: the same identity in every
		// process, which the plan fingerprint hashes.
		ID: len(s.Plan.Nodes()), Name: "best", Contract: dataflow.ReduceOp,
		Keys: [2]record.KeyFunc{s.WorksetKey}, Combinable: true, Better: s.Comparator,
	}
	optimizer.FoldWorkset(phys, s.WorksetSink.ID, fold, s.DeltaSink.Inputs[0].EstRecords)
}

// worksetFold returns the fold planWorksetFold absorbed into phys, or nil.
func (s *IncrementalSpec) worksetFold(phys *optimizer.PhysPlan) *dataflow.Node {
	for _, sink := range phys.Sinks {
		if sink.Logical == s.WorksetSink {
			c := sink.Inputs[0].From.Combiner
			if c != nil && c.ID == len(s.Plan.Nodes()) {
				return c
			}
		}
	}
	return nil
}

// RunIncremental executes an incremental iteration in supersteps: each
// superstep evaluates Δ against the current S and W, then merges D into S
// with ∪̇ and installs the produced working set for the next superstep.
// It converges when the working set is empty (§5.3).
func RunIncremental(spec IncrementalSpec, initialSolution, initialWorkset []record.Record, cfg Config) (*IncrementalResult, error) {
	return runIncremental(spec, initialSolution, initialWorkset, cfg, false)
}

// runIncremental is the cold run behind RunIncremental and RunMicrostep:
// a Fixpoint opened on a fresh solution set, run once and closed.
// requireDirect refuses a Δ that fails the §5.2 conditions.
func runIncremental(spec IncrementalSpec, initialSolution, initialWorkset []record.Record, cfg Config, requireDirect bool) (*IncrementalResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	plannedEst := spec.Workset.EstRecords
	if plannedEst == 0 {
		plannedEst = int64(len(initialWorkset))
	}
	phys, err := optimizeIncrementalWithEst(&spec, cfg, expectedPasses, plannedEst, false, context.Background())
	if err != nil {
		return nil, err
	}
	f, err := OpenFixpointOn(spec, nil, cfg, phys, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Refuse before the O(S) init: an inadmissible spec must not pay it —
	// or, under a memory budget, leave spill files behind.
	if requireDirect && f.en.inadmissible != nil {
		return nil, f.en.inadmissible
	}
	sol := f.Solution()
	sol.Init(initialSolution)
	if requireDirect && len(initialWorkset) == 0 {
		// An admissible Δ derives everything from W (condition 3: the
		// dynamic path is one chain), so an empty working set is already
		// the fixpoint — no superstep, no workers woken.
		return &IncrementalResult{Plan: phys, Set: sol, Solution: sol.Snapshot()}, nil
	}
	// A run that exhausts its budget still hands back its partial state,
	// wrapped in ErrNoProgress.
	out, err := f.Run(initialWorkset)
	if out != nil {
		out.Solution = sol.Snapshot()
		if serr := sol.Err(); serr != nil {
			out, err = nil, serr
		}
	}
	if out == nil {
		sol.Reset() // the set is not handed out: release its spill files
		return nil, err
	}
	if requireDirect {
		out.Microsteps = f.en.elements
	}
	return out, err
}

// plannerFor resolves the configured planner for one planning call:
// PlannerAuto (the default) plans the initial run with the cost-based
// enumerator and mid-run re-optimizations — where planning latency sits
// on the superstep path — with the greedy fast path.
func plannerFor(cfg Config, reopt bool) optimizer.PlannerKind {
	switch cfg.Planner {
	case optimizer.PlannerCost, optimizer.PlannerGreedy:
		return cfg.Planner
	}
	if reopt {
		return optimizer.PlannerGreedy
	}
	return optimizer.PlannerCost
}

// Profiler labels of planner calls, {layer=optimizer, op=cost|greedy},
// built once.
var (
	costPlanLabels   = pprof.WithLabels(context.Background(), pprof.Labels("layer", "optimizer", "op", "cost"))
	greedyPlanLabels = pprof.WithLabels(context.Background(), pprof.Labels("layer", "optimizer", "op", "greedy"))
)

// labelPlanning runs the calling goroutine under the profiler labels of a
// call to planner until the returned reset puts restore — the caller's
// labels — back.
func labelPlanning(planner optimizer.PlannerKind, restore context.Context) (reset func()) {
	labels := costPlanLabels
	if planner == optimizer.PlannerGreedy {
		labels = greedyPlanLabels
	}
	pprof.SetGoroutineLabels(labels)
	return func() { pprof.SetGoroutineLabels(restore) }
}

// notePlanned records the planning metrics of one optimizer call.
func notePlanned(cfg Config, planner optimizer.PlannerKind, phys *optimizer.PhysPlan, elapsed time.Duration) {
	if cfg.Obs != nil {
		cfg.Obs.Histogram("plan_duration").Observe(elapsed)
		cfg.Obs.Trace().RecordSpan(obs.Span{
			Trace: cfg.TraceID, Host: int32(cfg.Host), Part: -1, Step: -1,
			Phase: obs.PhasePlan, Start: time.Now().Add(-elapsed).UnixNano(),
			Dur: int64(elapsed), Label: cfg.TraceLabel,
		})
	}
	if cfg.Metrics == nil {
		return
	}
	cfg.Metrics.PlanNanos.Add(elapsed.Nanoseconds())
	if planner == optimizer.PlannerGreedy {
		cfg.Metrics.GreedyPlans.Add(1)
	}
	if phys != nil {
		cfg.Metrics.FusedOperators.Add(int64(phys.Fused))
	}
}

// The superstep loop itself — and the re-optimization state it drives —
// lives in driver.go; RunBulk and RunIncremental above are adapters
// supplying an EnginePolicy to it.
