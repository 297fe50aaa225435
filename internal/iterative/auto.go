package iterative

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// AutoSpec describes one iterative computation executable by either
// engine, so the runner — not the caller — picks the engine. The paper's
// §4.3 observes that "in the general case, a different plan may be
// optimal for every iteration"; RunAuto extends that from plans to whole
// engines.
type AutoSpec struct {
	// Incremental is the Δ iteration (Δ, S0, W0) — required. (Whether its
	// deltas merge directly, §5.2, is the engine's own decision and not a
	// separate candidate.)
	Incremental IncrementalSpec
	// Bulk optionally supplies an equivalent bulk iteration computing
	// the same fixpoint by full recomputation; when set it competes in
	// the engine choice (it wins when the working set is nearly as large
	// as the solution and grouping whole partitions beats per-delta
	// bookkeeping).
	Bulk *BulkSpec
	// BulkInitial is the initial partial solution for Bulk; nil defaults
	// to the initial solution passed to RunAuto.
	BulkInitial []record.Record
	// Force pins the engine choice instead of costing the candidates. Nil
	// means cost-based selection.
	Force *optimizer.Engine
}

// EngineCandidate reports one engine's up-front costing in an AutoResult.
type EngineCandidate struct {
	Engine optimizer.Engine
	// Cost is the estimated whole-run cost in the selection weights'
	// unit system (meaningless across weight sets, comparable within).
	Cost float64
	// Viable is false when the engine cannot run this spec; Reason says
	// why.
	Viable bool
	Reason string
}

// AutoResult is the outcome of an adaptive run. The embedded
// IncrementalResult carries the solution, trace and (for incremental
// runs) the resident solution set.
type AutoResult struct {
	IncrementalResult
	// Engines names the engine that executed (one entry: a run stays on
	// the engine selection picked).
	Engines []optimizer.Engine
	// Candidates are the per-engine cost estimates selection compared.
	Candidates []EngineCandidate
	// Weights are the cost weights selection used (calibrated when a
	// Calibrator with enough samples was configured, Samples > 0).
	Weights metrics.CalibratedWeights
	// PlannedVsObserved pairs each barrier superstep's predicted cost
	// against its measured wall time — the feedback the calibrator fits.
	PlannedVsObserved []metrics.PlannedVsObserved
}

// engineWeights resolves the weights RunAuto plans with: calibrated when
// a Calibrator is configured, the built-in defaults otherwise.
func engineWeights(cfg Config) metrics.CalibratedWeights {
	if cfg.Calibrator != nil {
		return cfg.Calibrator.Weights()
	}
	return optimizer.DefaultWeights()
}

// constantSize sums the cardinalities of a plan's Source nodes — the
// loop-invariant inputs the constant-path cache materializes.
func constantSize(p *dataflow.Plan) int64 {
	var n int64
	for _, node := range p.Nodes() {
		if node.Contract == dataflow.Source {
			n += int64(len(node.Data))
		}
	}
	return n
}

// incrementalStats derives the engine-costing statistics for the Δ spec.
func incrementalStats(spec *IncrementalSpec, solution, workset int, cfg Config) optimizer.EngineStats {
	expected := spec.ExpectedIterations
	if expected <= 0 {
		expected = 10
	}
	return optimizer.EngineStats{
		SolutionSize:       int64(solution),
		WorksetSize:        int64(workset),
		ConstantSize:       constantSize(spec.Plan),
		ExpectedSupersteps: expected,
		Tasks:              len(spec.Plan.Nodes()) * cfg.Parallelism,
	}
}

// RunAuto executes one iterative computation on whichever engine the cost
// model says is cheaper — the incremental one unless a supplied bulk
// alternative clearly wins — and records each superstep's predicted cost
// against its measured wall time. With Config.Calibrator set, every
// superstep's measured work and wall time feed a least-squares fit of the
// cost weights, so repeated runs plan with observed rather than guessed
// constants.
func RunAuto(spec AutoSpec, initialSolution, initialWorkset []record.Record, cfg Config) (*AutoResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.Incremental.validate(); err != nil {
		return nil, err
	}
	weights := engineWeights(cfg)
	incStats := incrementalStats(&spec.Incremental, len(initialSolution), len(initialWorkset), cfg)

	out := &AutoResult{Weights: weights}
	out.Candidates = []EngineCandidate{
		{Engine: optimizer.EngineIncremental, Viable: true,
			Cost: optimizer.EngineCost(optimizer.EngineIncremental, incStats, weights)},
	}
	const noBulk = "no bulk alternative supplied"
	var bulkStats optimizer.EngineStats
	if spec.Bulk != nil {
		bulkInitial := spec.BulkInitial
		if bulkInitial == nil {
			bulkInitial = initialSolution
		}
		expected := spec.Bulk.ExpectedIterations
		if expected <= 0 {
			expected = spec.Bulk.FixedIterations
		}
		if expected <= 0 {
			expected = 10
		}
		bulkStats = optimizer.EngineStats{
			SolutionSize:       int64(len(bulkInitial)),
			ConstantSize:       constantSize(spec.Bulk.Plan),
			ExpectedSupersteps: expected,
			Tasks:              len(spec.Bulk.Plan.Nodes()) * cfg.Parallelism,
		}
		out.Candidates = append(out.Candidates, EngineCandidate{
			Engine: optimizer.EngineBulk, Viable: true,
			Cost: optimizer.EngineCost(optimizer.EngineBulk, bulkStats, weights)})
	} else {
		out.Candidates = append(out.Candidates, EngineCandidate{
			Engine: optimizer.EngineBulk, Reason: noBulk})
	}

	chosen := optimizer.EngineIncremental
	if spec.Force != nil {
		chosen = *spec.Force
		switch {
		case chosen == optimizer.EngineBulk && spec.Bulk == nil:
			return nil, fmt.Errorf("iterative: forced engine %s not viable: %s", chosen, noBulk)
		case chosen != optimizer.EngineBulk && chosen != optimizer.EngineIncremental:
			return nil, fmt.Errorf("iterative: forced engine %s does not exist", chosen)
		}
	} else if spec.Bulk != nil {
		// The incremental engine is the default: its cost is workset-
		// proportional, so it is never catastrophically wrong. Leaving it
		// requires a clear margin — cardinality estimates and calibrated
		// constants are noisy, and acting on a near-tie trades a robust
		// choice for a coin flip. Calibrated weights carry an extra hazard:
		// a fit over near-collinear samples (a long tail of identical tiny
		// supersteps) can assign per-record costs almost arbitrarily, so a
		// calibrated deviation must also hold under the built-in defaults
		// before it is trusted.
		const margin = 0.75
		bulkWins := func(w metrics.CalibratedWeights) bool {
			return optimizer.EngineCost(optimizer.EngineBulk, bulkStats, w) <
				margin*optimizer.EngineCost(optimizer.EngineIncremental, incStats, w)
		}
		if bulkWins(weights) && (cfg.Calibrator == nil || bulkWins(optimizer.DefaultWeights())) {
			chosen = optimizer.EngineBulk
		}
	}

	out.Engines = []optimizer.Engine{chosen}
	if chosen == optimizer.EngineBulk {
		return runAutoBulk(spec, initialSolution, cfg, out)
	}

	// The incremental run is RunIncremental's, watched: each superstep's
	// cost is predicted from its input cardinality with the freshest
	// weights, then paired with what it took.
	inCount := len(initialWorkset)
	var planned float64
	res, err := runIncremental(spec.Incremental, initialSolution, initialWorkset, cfg, incRun{
		preStep: func(step int) {
			planned = optimizer.SuperstepCost(int64(inCount), incStats, engineWeights(cfg))
		},
		postStep: func(step, next int, dur time.Duration) {
			out.PlannedVsObserved = append(out.PlannedVsObserved, metrics.PlannedVsObserved{
				Engine: chosen.String(), Superstep: step,
				Planned: planned, Observed: dur,
			})
			inCount = next
		},
	})
	if res == nil {
		return nil, err
	}
	out.IncrementalResult = *res
	return out, err
}

// runAutoBulk executes the bulk alternative and adapts its result.
func runAutoBulk(spec AutoSpec, initialSolution []record.Record, cfg Config, out *AutoResult) (*AutoResult, error) {
	initial := spec.BulkInitial
	if initial == nil {
		initial = initialSolution
	}
	res, err := RunBulk(*spec.Bulk, initial, cfg)
	if err != nil {
		return nil, err
	}
	out.Solution = res.Solution
	out.Supersteps = res.Iterations
	out.Plan = res.Plan
	out.Trace = res.Trace
	return out, nil
}
