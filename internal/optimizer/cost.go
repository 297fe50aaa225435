package optimizer

import (
	"math"

	"repro/internal/dataflow"
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
