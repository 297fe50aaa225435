package iterative

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Microstep execution (§5.2/§5.3): an incremental iteration whose Δ
// dataflow satisfies the microstep conditions may apply every delta record
// to the solution set the moment it is produced ("the Match output is
// written back to the hash table", Figure 6), so later working-set elements
// of the same superstep already see it and redundant candidates die at the
// source. That is what the runtime session does whenever the conditions
// hold (Executor.DirectMerge), for every entry point — so a microstep run
// is not a second engine: RunMicrostep and ResumeMicrostep are the
// incremental engine with the admissibility check made mandatory.
//
// The §5.2 admissibility conditions enforced by ValidateMicrostep:
//
//  1. every operator on the dynamic data path is record-at-a-time;
//  2. binary operators have at most one input on the dynamic path;
//  3. the dynamic path has no branches, except the split into the delta
//     output D;
//  4. updates stay partition-local: the key k(s) is preserved on the path
//     from the workset through the solution-set operator to D, and every
//     keyed operation on the local segment uses that key.

// ValidateMicrostep checks the §5.2 conditions on an incremental spec and
// returns the ordered dynamic path from the workset placeholder to the
// workset sink. It does not materialize constant inputs.
func ValidateMicrostep(spec IncrementalSpec) ([]*dataflow.Node, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	consumers := spec.Plan.Consumers()
	solKeyID := record.KeyID(spec.SolutionKey)

	var path []*dataflow.Node
	cur := spec.Workset
	seenSolution := false
	for {
		cons := consumers[cur.ID]
		// Condition 3: no branches except the delta output.
		var next *dataflow.Node
		for _, c := range cons {
			if c == spec.DeltaSink {
				continue
			}
			if next != nil {
				return nil, fmt.Errorf("iterative: microstep dynamic path branches at %q", cur.Name)
			}
			next = c
		}
		if next == nil {
			return nil, fmt.Errorf("iterative: dynamic path from %q does not reach the workset sink", cur.Name)
		}
		if next == spec.WorksetSink {
			path = append(path, next)
			break
		}
		// Condition 1: record-at-a-time operators only.
		if !next.Contract.RecordAtATime() {
			return nil, fmt.Errorf("iterative: %s %q is group-at-a-time; microsteps need supersteps (§5.2)", next.Contract, next.Name)
		}
		// Condition 2: binary operators may have only one dynamic input.
		if next.Contract == dataflow.MatchOp || next.Contract == dataflow.CrossOp {
			dynInputs := 0
			for _, in := range next.Inputs {
				if in == cur {
					dynInputs++
				}
			}
			if dynInputs != 1 {
				return nil, fmt.Errorf("iterative: %s %q must have exactly one dynamic input", next.Contract, next.Name)
			}
		}
		if next.Contract == dataflow.SolutionJoin {
			if seenSolution {
				return nil, fmt.Errorf("iterative: multiple solution-set operators on the dynamic path")
			}
			seenSolution = true
			// Condition 4: the update key must be k(s).
			if record.KeyID(next.Keys[0]) != solKeyID {
				return nil, fmt.Errorf("iterative: solution operator %q keys on a different field than k(s)", next.Name)
			}
			// And the UDF must keep it constant so updates stay local.
			if !next.PreservesKey(0, solKeyID) {
				return nil, fmt.Errorf("iterative: solution operator %q does not declare k(s) preserved; updates could cross partitions (§5.2)", next.Name)
			}
		}
		// Condition 4 (local segment): keyed record-at-a-time operations
		// before re-routing must key on the preserved workset key.
		if next.Contract == dataflow.MatchOp {
			dynIdx := 0
			if next.Inputs[1] == cur {
				dynIdx = 1
			}
			if record.KeyID(next.Keys[dynIdx]) != record.KeyID(spec.WorksetKey) &&
				record.KeyID(next.Keys[dynIdx]) != solKeyID {
				return nil, fmt.Errorf("iterative: match %q keys the dynamic side on a non-local field", next.Name)
			}
		}
		path = append(path, next)
		cur = next
	}
	if !seenSolution {
		return nil, fmt.Errorf("iterative: dynamic path has no solution-set operator")
	}
	return path, nil
}

// RunMicrostep executes an incremental iteration whose Δ must satisfy the
// §5.2 conditions: an inadmissible spec is refused with ValidateMicrostep's
// error before the solution set is loaded, an admissible one runs on the
// incremental engine with deltas merged into S as they are produced. The
// result's Microsteps counts the working-set elements consumed.
func RunMicrostep(spec IncrementalSpec, initialSolution, initialWorkset []record.Record, cfg Config) (*IncrementalResult, error) {
	return runIncremental(spec, initialSolution, initialWorkset, cfg, true)
}

// ResumeMicrostep is ResumeIncremental for a Δ that must satisfy the §5.2
// conditions: it continues over an existing resident solution set,
// processing only the given working set. `existing` is mutated in place
// and returned in the result's Set field; its partition count must match
// cfg.Parallelism.
func ResumeMicrostep(spec IncrementalSpec, existing *runtime.SolutionSet, workset []record.Record, cfg Config) (*IncrementalResult, error) {
	return resumeIncremental(spec, existing, workset, cfg, true)
}
