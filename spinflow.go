// Package spinflow is a Go reproduction of "Spinning Fast Iterative Data
// Flows" (Ewen, Tzoumas, Kaufmann, Markl — PVLDB 5(11), 2012): a parallel
// dataflow engine with an optimizer, plus the paper's two iteration
// abstractions — bulk iterations and incremental (workset) iterations,
// which merge deltas directly when Δ meets the microstep conditions.
//
// # Building plans
//
// A Plan is a DAG of PACT-style operators (Map, Reduce, Match, Cross,
// Union) over compact Records:
//
//	p := spinflow.NewPlan()
//	src := p.SourceOf("edges", edges)
//	deg := p.ReduceNode("deg", src, spinflow.KeyA, countFn)
//	sink := p.SinkNode("out", deg)
//	res, err := spinflow.Execute(p, spinflow.Config{Parallelism: 4})
//
// # Bulk iterations (§4)
//
// A BulkSpec embeds a step-function dataflow between an IterationInput
// placeholder I and an output sink O, with an optional termination
// criterion sink T; RunBulk drives the feedback loop, keeping
// loop-invariant inputs cached across passes.
//
// # Incremental iterations (§5)
//
// An IncrementalSpec reads a workset placeholder and the keyed, mutable
// solution set (through SolutionJoin/SolutionCoGroup operators) and feeds
// a delta sink and a next-workset sink; RunIncremental drives supersteps
// merging deltas with the ∪̇ operator. When Δ meets the §5.2 microstep
// conditions (ValidateMicrostep) the engine writes each delta into the
// solution set the moment it is produced, so later working-set elements
// see it; a caller that needs that behaviour checks ValidateMicrostep
// before it runs.
//
// # Choosing an engine
//
// As in the paper, the caller picks the iteration form — RunBulk or
// RunIncremental — and the optimizer picks the physical plan within it.
// Both entry points are thin adapters over one
// superstep driver (internal/iterative/driver.go) that owns the
// iteration lifecycle — convergence, mid-run re-optimization,
// telemetry — once; engines supply only step
// semantics, and distributed deployments plug in barrier and plan-epoch
// hooks.
//
// # Execution model: sessions and partition-pinned workers
//
// The runtime executes a physical plan through a session
// (runtime.Executor.OpenSession): one long-lived, partition-pinned worker
// goroutine per (operator, partition), and one Run call per superstep.
// Workers park between supersteps, exchanges are allocated once per
// physical edge and reset between passes, and record batches cycle
// through a sync.Pool — the physical-layer counterpart of §4.2's rule that
// only the dynamic data path is re-evaluated. An edge on which no record
// changes partition has no exchange: its consumer reads the placeholder
// in place, or its producer writes into the sink's result. Metrics
// (WorkersSpawned, ExchangesReused, BatchesAllocated/Recycled) make the
// reuse observable. Execute wraps a single-superstep session.
//
// # The solution set and out-of-core iterations
//
// The solution set of incremental iterations is one keyed index, chosen
// by Config.SolutionMemoryBudget (bytes, serialized-form estimate). With
// no budget it is an open-addressing index over flat record slabs — no
// per-entry map boxing, linear-probe lookups, slab reuse across
// generations. With a budget the same index evicts least-recently-used
// solution partitions to disk through the batch codec and reloads them on
// access — §4.3's gradual spilling applied to iteration state, so graphs
// whose converged state exceeds RAM still run to the same fixpoint. A
// partition has one owner at a time and no lock: during a superstep its
// own task (§5.2 keeps every delta in its key's partition, and a delta
// that leaves it fails the run), between supersteps the driver. Only the
// spill backend's cross-partition eviction takes a mutex. The
// metrics SolutionBytes (resident gauge), SolutionSpills and
// SolutionReloads make residency observable; results are identical with
// and without a budget (enforced by the cross-engine differential suite in
// internal/difftest).
//
// # Serving mode: warm restarts and live maintenance
//
// A converged incremental iteration's state — the solution set S plus an
// empty working set — is exactly what is needed to absorb new input
// without recomputation. Every IncrementalResult carries its resident
// solution set in the Set field. internal/live builds the serving system
// on that property: each view keeps a resident fixpoint open
// (iterative.Fixpoint) and warm-restarts it with only a delta working
// set per mutation batch. Around it sit streaming graph mutations
// (monotone fast path for insertions, bounded recompute for deletions),
// a concurrent view scheduler with memory-budget admission control, and
// the HTTP API behind the `spinflow serve` command. Maintenance work is
// observable through the DeltasApplied, WarmRestarts, PartialRecomputes,
// FullRecomputes and MaintenanceSupersteps counters.
//
// Ready-made algorithm specs (PageRank, Connected Components, SSSP),
// baseline engines (Pregel-style, Spark-style) and the paper's experiment
// harness live in the internal packages; the cmd/spinflow binary
// regenerates every table and figure.
package spinflow

import (
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Core types re-exported from the engine.
type (
	// Record is the tuple type flowing through plans.
	Record = record.Record
	// KeyFunc selects a key from a record.
	KeyFunc = record.KeyFunc
	// Comparator orders records for solution-set replacement (§5.1).
	Comparator = record.Comparator
	// Plan is a logical dataflow under construction.
	Plan = dataflow.Plan
	// Node is one logical operator.
	Node = dataflow.Node
	// Emitter receives records from user functions.
	Emitter = dataflow.Emitter
	// Config controls execution.
	Config = iterative.Config
	// BulkSpec describes a bulk iteration (G, I, O, T).
	BulkSpec = iterative.BulkSpec
	// BulkResult is a bulk iteration outcome.
	BulkResult = iterative.BulkResult
	// IncrementalSpec describes an incremental iteration (Δ, S0, W0).
	IncrementalSpec = iterative.IncrementalSpec
	// IncrementalResult is an incremental iteration outcome.
	IncrementalResult = iterative.IncrementalResult
	// Counters aggregates work metrics.
	Counters = metrics.Counters
	// Trace records per-iteration statistics.
	Trace = metrics.Trace
	// Graph is an edge-list graph from the synthetic generators.
	Graph = graphgen.Graph
)

// Standard key selectors over Record fields.
var (
	// KeyA selects field A.
	KeyA = record.KeyA
	// KeyB selects field B.
	KeyB = record.KeyB
)

// NewPlan starts an empty logical plan.
func NewPlan() *Plan { return dataflow.NewPlan() }

// Execute optimizes and runs a non-iterative plan, returning the records
// collected at each sink (keyed by sink node).
func Execute(p *Plan, cfg Config) (map[*Node][]Record, error) {
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: max(cfg.Parallelism, 1)})
	if err != nil {
		return nil, err
	}
	exec := runtime.NewExecutor(runtime.Config{Metrics: cfg.Metrics})
	res, err := exec.Run(phys)
	if err != nil {
		return nil, err
	}
	out := make(map[*Node][]Record, len(p.Sinks()))
	for _, s := range p.Sinks() {
		out[s] = res.Records(s.ID)
	}
	return out, nil
}

// Explain optimizes a plan and renders the chosen physical strategy
// (shipping strategies, local strategies, cached edges).
func Explain(p *Plan, cfg Config, expectedIterations int) (string, error) {
	phys, err := optimizer.Optimize(p, optimizer.Options{
		Parallelism:        cfg.Parallelism,
		ExpectedIterations: expectedIterations,
	})
	if err != nil {
		return "", err
	}
	return phys.Explain(), nil
}

// RunBulk executes a bulk iteration.
func RunBulk(spec BulkSpec, initial []Record, cfg Config) (*BulkResult, error) {
	return iterative.RunBulk(spec, initial, cfg)
}

// RunIncremental executes an incremental iteration in supersteps.
func RunIncremental(spec IncrementalSpec, s0, w0 []Record, cfg Config) (*IncrementalResult, error) {
	return iterative.RunIncremental(spec, s0, w0, cfg)
}

// SolutionSet is the resident state of an incremental iteration, handed
// back by IncrementalResult.Set after a run.
type SolutionSet = runtime.SolutionSet

// ValidateMicrostep checks the §5.2 microstep admissibility conditions
// without running the iteration. RunIncremental merges the deltas of a Δ
// it admits into the solution set as they are produced.
func ValidateMicrostep(spec IncrementalSpec) ([]*Node, error) {
	return iterative.ValidateMicrostep(spec)
}

// Synthetic datasets (scaled stand-ins for the paper's Table 2 graphs).

// Dataset names.
const (
	DatasetWikipedia = graphgen.DSWikipedia
	DatasetWebbase   = graphgen.DSWebbase
	DatasetHollywood = graphgen.DSHollywood
	DatasetTwitter   = graphgen.DSTwitter
	DatasetFOAF      = graphgen.DSFOAF
)

// LoadDataset builds one of the paper's datasets at the given scale
// (1.0 = default laptop scale).
func LoadDataset(name graphgen.Dataset, scale float64) *Graph {
	return graphgen.Load(name, graphgen.Scale(scale))
}

// UniformGraph generates an Erdős–Rényi style random graph.
func UniformGraph(vertices, edges int64, seed uint64) *Graph {
	return graphgen.Uniform("uniform", vertices, edges, seed)
}

// PowerLawGraph generates a preferential-attachment graph.
func PowerLawGraph(vertices int64, edgesPerVertex int, seed uint64) *Graph {
	return graphgen.PreferentialAttachment("powerlaw", vertices, edgesPerVertex, seed)
}
