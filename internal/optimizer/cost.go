package optimizer

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/metrics"
)

// Cost-model weights. The absolute values are unitless; only the ratios
// matter for plan choice. Network transfer dominates, as on the paper's
// cluster; building hash tables and sorting are charged above plain
// streaming CPU.
const (
	wNet    = 1.0  // per record crossing a partitioning exchange
	wCPU    = 0.2  // per record streamed through an operator
	wBuild  = 0.5  // per record inserted into a hash table
	wSortC  = 0.35 // per record*log2(n) sorted
	wGroup  = 0.3  // per record grouped (hash or merge)
	wMatCst = 0.1  // per record materialized into a cache

	// Engine-level weights (see EngineCost): the ∪̇ write path and the
	// fixed per-(task × superstep) cost of a barrier round.
	wMerge   = 0.4
	wStepOvh = 8.0
)

// wNetLocal is the fraction of wNet charged for a partition crossing that
// stays inside one process: an in-memory queue hop instead of a TCP frame.
const wNetLocal = 0.25

// shipCost returns the cost of moving n records with the given strategy to
// p consumer partitions, with the plan's partitions spread over hosts
// processes. Single-process plans (hosts ≤ 1) use the classic formulas
// unchanged; for multi-process plans, crossings that leave the process are
// charged the full network weight and in-process crossings the in-memory
// discount — under contiguous placement a hash-shipped record lands in a
// remote process with probability (hosts-1)/hosts.
func shipCost(s ShipStrategy, n int64, p, hosts int) float64 {
	f := 1.0
	if hosts > 1 {
		f = (float64(hosts-1) + wNetLocal) / float64(hosts)
	}
	switch s {
	case ShipForward:
		return 0
	case ShipPartition:
		return wNet * f * float64(n)
	case ShipBroadcast:
		return wNet * f * float64(n) * float64(p)
	}
	return 0
}

// sortCost returns the n*log2(n) cost of sorting n records.
func sortCost(n int64) float64 {
	if n < 2 {
		return wSortC
	}
	return wSortC * float64(n) * math.Log2(float64(n))
}

// estimateOut derives an output-cardinality estimate for a logical node
// from its input estimates. An explicit EstRecords on the node wins.
func estimateOut(n *dataflow.Node, in []int64) int64 {
	if n.EstRecords > 0 {
		return n.EstRecords
	}
	get := func(i int) int64 {
		if i < len(in) {
			return in[i]
		}
		return 0
	}
	switch n.Contract {
	case dataflow.Source, dataflow.IterationInput:
		return n.EstRecords
	case dataflow.MapOp, dataflow.Sink, dataflow.SolutionJoin:
		return get(0)
	case dataflow.ReduceOp, dataflow.SolutionCoGroup:
		// One output group per distinct key; assume moderate key skew.
		return maxi64(1, get(0)/2)
	case dataflow.MatchOp:
		// Foreign-key equi-join heuristic: output ≈ the larger input.
		return maxi64(get(0), get(1))
	case dataflow.CrossOp:
		return get(0) * get(1)
	case dataflow.CoGroupOp, dataflow.InnerCoGroupOp:
		return maxi64(1, maxi64(get(0), get(1))/2)
	case dataflow.UnionOp:
		var s int64
		for _, v := range in {
			s += v
		}
		return s
	}
	return get(0)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Engine-level costing (§4.3 extended) --------------------------------
//
// The paper treats bulk and incremental iterations as alternatives in one
// plan space but settles for caller-chosen engines; the formulas below
// cost a whole run per engine so a driver can pick. (§5.2's microsteps are
// not a third alternative to cost: the incremental engine merges deltas
// directly whenever Δ admits it.) Both are in the same unit system as the
// plan-level weights above, and every weight can be replaced by a
// calibrated value (see Calibrator).

// Engine identifies one of the two iteration execution engines.
type Engine int

// The engines of §4 (bulk) and §5 (incremental).
const (
	// EngineBulk re-computes the full partial solution every superstep.
	EngineBulk Engine = iota
	// EngineIncremental evaluates Δ over the working set in barrier-
	// synchronized supersteps, merging deltas with ∪̇.
	EngineIncremental
)

func (e Engine) String() string {
	switch e {
	case EngineBulk:
		return "bulk"
	case EngineIncremental:
		return "incremental"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// DefaultWeights returns the built-in unitless cost weights, the starting
// point a Calibrator refines.
func DefaultWeights() metrics.CalibratedWeights {
	return metrics.CalibratedWeights{
		Net: wNet, CPU: wCPU, Group: wGroup, Merge: wMerge,
		StepOverhead: wStepOvh,
	}
}

// EngineStats carries the cardinalities engine costing needs. They come
// from the same estimates the plan optimizer uses (workset placeholder,
// source sizes), not from execution.
type EngineStats struct {
	// SolutionSize is |S0| (bulk: the partial solution re-materialized
	// every pass).
	SolutionSize int64
	// WorksetSize is |W| — the initial working set up front, or the
	// remaining working set when re-costed mid-run.
	WorksetSize int64
	// ConstantSize is the summed cardinality of loop-invariant inputs
	// (the cached edge table N).
	ConstantSize int64
	// ExpectedSupersteps weighs per-superstep work (§4.3's iteration
	// factor).
	ExpectedSupersteps int
	// Tasks is plan nodes × parallelism — the number of partition-pinned
	// workers one barrier round has to wake.
	Tasks int
}

func (st EngineStats) normalized() EngineStats {
	if st.ExpectedSupersteps <= 0 {
		st.ExpectedSupersteps = 10
	}
	if st.Tasks <= 0 {
		st.Tasks = 1
	}
	return st
}

// stepOverhead is the fixed cost of one barrier round.
func stepOverhead(st EngineStats, w metrics.CalibratedWeights) float64 {
	return w.StepOverhead * float64(st.Tasks)
}

// EngineCost estimates the cost of running a whole iteration on the given
// engine:
//
//   - bulk: every superstep recomputes the full solution against the
//     cached constant inputs — per pass the dynamic path streams S
//     against N, emits ≈ (S+N) candidate records that are shipped and
//     grouped, and re-materializes S, regardless of how little changed;
//   - incremental: work is proportional to the working set, which
//     collapses as the iteration converges (Figure 2's decaying curves):
//     a geometric decay makes the whole run touch ≈ 2·W₀ elements, each
//     shipped, streamed and grouped, with the ∪̇ merge charged per
//     element, plus one barrier round for each expected superstep.
func EngineCost(e Engine, st EngineStats, w metrics.CalibratedWeights) float64 {
	st = st.normalized()
	k := float64(st.ExpectedSupersteps)
	switch e {
	case EngineBulk:
		perPass := (w.Net+w.CPU+w.Group)*float64(st.SolutionSize+st.ConstantSize) +
			w.Merge*float64(st.SolutionSize) + stepOverhead(st, w)
		return k * perPass
	case EngineIncremental:
		total := 2 * float64(st.WorksetSize)
		return total*(w.Net+w.CPU+w.Group+w.Merge/2) + k*stepOverhead(st, w)
	}
	return math.Inf(1)
}

// SuperstepCost is the predicted cost of one barrier superstep over a
// workset of the given size — the per-step feedback signal RunAuto pairs
// with observed durations.
func SuperstepCost(workset int64, st EngineStats, w metrics.CalibratedWeights) float64 {
	return stepOverhead(st.normalized(), w) + float64(workset)*(w.Net+w.CPU+w.Group+w.Merge)
}
