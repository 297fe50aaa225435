// Package core hosts the paper's primary contribution — iteration
// operators embedded into parallel dataflows — as the stable internal
// surface the public spinflow package re-exports.
//
// The functionality is implemented across focused sibling packages:
//
//   - internal/dataflow: the logical PACT-style operator DAG (§3)
//   - internal/optimizer: plan enumeration, interesting properties, loop
//     feedback, constant-path caching (§4.3)
//   - internal/runtime: the parallel executor, exchanges, local
//     strategies, caches, and the partitioned solution set (§4.2, §5.3)
//   - internal/iterative: the bulk iteration operator (G, I, O, T), the
//     incremental iteration operator (Δ, S0, W0), and microstep
//     execution (§4, §5)
//
// This package re-exports the types that together form the iteration
// abstraction, so the mandated internal/core path resolves to the
// contribution.
package core

import (
	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Core dataflow types.
type (
	// Record is the tuple flowing through plans.
	Record = record.Record
	// KeyFunc selects grouping/join keys.
	KeyFunc = record.KeyFunc
	// Comparator arbitrates ∪̇ replacements (§5.1).
	Comparator = record.Comparator
	// Plan is a logical dataflow DAG.
	Plan = dataflow.Plan
	// Node is one logical operator.
	Node = dataflow.Node
	// Emitter receives UDF output.
	Emitter = dataflow.Emitter
)

// The iteration operators (the paper's contribution).
type (
	// BulkSpec is the bulk iteration operator (G, I, O, T) of §4.
	BulkSpec = iterative.BulkSpec
	// BulkResult is a bulk iteration outcome.
	BulkResult = iterative.BulkResult
	// IncrementalSpec is the incremental iteration operator (Δ, S0, W0)
	// of §5.
	IncrementalSpec = iterative.IncrementalSpec
	// IncrementalResult is an incremental/microstep iteration outcome.
	IncrementalResult = iterative.IncrementalResult
	// Config controls execution (parallelism, metrics, tracing).
	Config = iterative.Config
)

// NewPlan starts an empty logical plan.
func NewPlan() *Plan { return dataflow.NewPlan() }

// RunBulk executes a bulk iteration (§4.2 feedback-channel strategy).
func RunBulk(spec BulkSpec, initial []Record, cfg Config) (*BulkResult, error) {
	return iterative.RunBulk(spec, initial, cfg)
}

// RunIncremental executes an incremental iteration in supersteps (§5.3).
func RunIncremental(spec IncrementalSpec, s0, w0 []Record, cfg Config) (*IncrementalResult, error) {
	return iterative.RunIncremental(spec, s0, w0, cfg)
}

// RunMicrostep executes an incremental iteration that must meet the
// §5.2 conditions, merging deltas into the solution set directly.
func RunMicrostep(spec IncrementalSpec, s0, w0 []Record, cfg Config) (*IncrementalResult, error) {
	return iterative.RunMicrostep(spec, s0, w0, cfg)
}

// SolutionSet is the partitioned, keyed, resident state of an incremental
// iteration. A converged run hands it back via IncrementalResult.Set, and
// ResumeIncremental continues from it.
type SolutionSet = runtime.SolutionSet

// ResumeIncremental warm-restarts an incremental iteration over an
// existing converged solution set with only delta as the working set —
// the maintenance form of §5: fixpoints absorb new input without
// recomputation.
func ResumeIncremental(spec IncrementalSpec, existing *SolutionSet, delta []Record, cfg Config) (*IncrementalResult, error) {
	return iterative.ResumeIncremental(spec, existing, delta, cfg)
}

// ResumeMicrostep is ResumeIncremental for a spec that must meet the
// §5.2 conditions.
func ResumeMicrostep(spec IncrementalSpec, existing *SolutionSet, workset []Record, cfg Config) (*IncrementalResult, error) {
	return iterative.ResumeMicrostep(spec, existing, workset, cfg)
}

// ValidateMicrostep checks the §5.2 admissibility conditions.
func ValidateMicrostep(spec IncrementalSpec) ([]*Node, error) {
	return iterative.ValidateMicrostep(spec)
}
