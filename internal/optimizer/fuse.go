package optimizer

import (
	"slices"

	"repro/internal/dataflow"
)

// Fuse collapses operators connected by exclusive forward edges into the
// node that feeds them, so the runtime executes them inside that node's
// emitter instead of behind an exchange. Three rules apply:
//
//   - A union is absorbed into the producer of its input 0, as
//     PhysNode.Union, when that producer is a plain operator with nothing
//     fused onto it yet: the union's other inputs are appended to the
//     producer's Inputs, and the runtime streams them into the producer's
//     emitter, in input order, after the producer's own output — the
//     order the union's task read its inputs in. Bulk PageRank's join
//     then feeds its contributions and the teleport term into the
//     absorbed combiner with no hop between them.
//   - Chains of adjacent Map operators (filters and projections are Maps
//     in the logical algebra) collapse onto the chain's head: the head
//     keeps its own UDF and gains the absorbed nodes' UDFs in FusedChain,
//     which the runtime composes record-at-a-time.
//   - A combiner (RoleCombiner) is absorbed into its producer, after any
//     Maps the producer already fused, as PhysNode.Combiner: the runtime
//     folds each emitted record into a per-key accumulator on arrival and
//     writes the accumulators to the combiner's consumers when the
//     producer's task ends. Nothing fuses onto a node past its combiner.
//   - At Parallelism 1 a Reduce whose only input is its own absorbed
//     combiner goes too: that combiner saw every record of each key, so
//     its final calls are the Reduce's output.
//
// Every fused edge eliminates one exchange hop — a queue round-trip, a
// batch copy, and a pool cycle — per superstep.
//
// An edge is fusible when it is ShipForward (the last rule aside), not a
// loop-invariant cache (cached inputs replay through per-edge slots), and
// the producer has no other consumer (the fused head emits the composed
// output only). The rewrite runs after plan selection, renumbers node and
// edge identities through finalizePlan, and credits the removed hops
// against the plan cost so Explain/Cost reflect the executed shape. It
// returns the number of unions, Maps, combiners and Reduces folded away.
func Fuse(plan *PhysPlan, expectedIterations int) int {
	// No union, no combiner and fewer than two fusible Maps in the whole
	// plan means nothing can fuse — skip the bookkeeping entirely (the
	// common case for join-shaped iteration steps).
	maps, others := 0, 0
	for _, n := range plan.Nodes {
		switch {
		case fusibleMap(n):
			maps++
		case n.Role == RoleCombiner || isUnion(n):
			others++
		}
	}
	if maps < 2 && others == 0 {
		return 0
	}
	consumers := make(map[*PhysNode]int)
	for _, n := range plan.Nodes {
		for i := range n.Inputs {
			consumers[n.Inputs[i].From]++
		}
	}
	mergedInto := make(map[*PhysNode]*PhysNode)
	resolve := func(p *PhysNode) *PhysNode {
		for {
			h, ok := mergedInto[p]
			if !ok {
				return p
			}
			p = h
		}
	}
	fused := 0
	for _, n := range plan.Nodes { // topological: producers first
		for i := range n.Inputs {
			n.Inputs[i].From = resolve(n.Inputs[i].From)
		}
		combiner, union := n.Role == RoleCombiner, isUnion(n)
		final := plan.Parallelism <= 1 && n.Role == RoleOperator && n.Logical.Contract == dataflow.ReduceOp &&
			len(n.Inputs) == 1 && n.Inputs[0].From.Combiner == n.Logical
		if !combiner && !union && !final && !fusibleMap(n) {
			continue
		}
		e := n.Inputs[0]
		p := e.From
		if e.Cache || consumers[p] != 1 || !final && (e.Ship != ShipForward || p.Combiner != nil) {
			continue
		}
		switch {
		case final: // p's combiner already emits n's output
		case combiner:
			// Absorb the combiner: p folds everything it emits (its own
			// output, through its fused Maps) per the Reduce's key.
			p.Combiner = n.Logical
		case union:
			// Absorb the union: p's own output is its input 0, and its
			// other inputs become p's tail inputs. Only onto a plain
			// operator whose inputs are still its logical ones, so the
			// tail starts at len(p.Logical.Inputs) and nothing p already
			// applies to its output would wrongly apply to the tail.
			if p.Role != RoleOperator || p.Union != nil || len(p.FusedChain) > 0 ||
				len(p.Inputs) != len(p.Logical.Inputs) {
				continue
			}
			p.Union = n.Logical
			p.Inputs = append(slices.Clip(p.Inputs), n.Inputs[1:]...)
		default:
			if !fusibleMap(p) {
				continue
			}
			// Absorb n into p: p applies n's UDF (and whatever n had
			// already absorbed) to every record it emits.
			p.FusedChain = append(p.FusedChain, n.Logical)
			p.FusedChain = append(p.FusedChain, n.FusedChain...)
		}
		// p inherits n's output and consumers.
		hop := p.EstOut
		p.EstOut = n.EstOut
		consumers[p] = consumers[n]
		mergedInto[n] = p
		fused++

		// Credit the removed hop: the records that crossed the fused edge
		// no longer pay the per-record materialization into exchange
		// batches each (weighted) superstep.
		factor := 1.0
		if p.OnDynamicPath && expectedIterations > 1 {
			factor = float64(expectedIterations)
		}
		plan.Cost -= wMatCst * float64(hop) * factor
	}
	if fused > 0 {
		if plan.Cost < 0 {
			plan.Cost = 0
		}
		finalizePlan(plan, expectedIterations)
	}
	return fused
}

// isUnion reports whether n is a union operator.
func isUnion(n *PhysNode) bool {
	return n.Role == RoleOperator && n.Logical.Contract == dataflow.UnionOp
}

// fusibleMap reports whether a node can sit in a fused chain: a plain
// single-input Map operator (no enforcer/combiner role, no cached input
// slots beyond the one edge checked by the caller).
func fusibleMap(n *PhysNode) bool {
	return n.Role == RoleOperator && n.Logical.Contract == dataflow.MapOp &&
		len(n.Inputs) == 1
}

// foldMinReduction is the least factor by which a workset fold must cut
// the records its producer emits for FoldWorkset to take it. Below it the
// hash insert the fold pays per record outweighs the shipping and grouping
// it saves: on the live-churn benchmark's graph (mean degree ≈ 2.3) an
// always-taken fold made each maintenance batch about 1.2× slower on a
// 2-core Xeon.
const foldMinReduction = 4

// FoldWorkset absorbs fold — a keep-the-better combinable Reduce — into the
// node that produces the input of the sink with logical ID sinkID, when
// the static estimates say it pays. The producer then folds everything it
// emits per fold.Keys[0] as a PhysNode.Combiner, so each partition ships at
// most one record per key: reduceCandidates' pre-shuffle combiner, with no
// node and no hop of its own.
//
// It is priced like that combiner. The fold's output estimate is
// min(keys × P, in), where in is the producer's estimate and keys the
// caller's key-count estimate; the fold is taken when that is at most
// 1/foldMinReduction of in. Both are the logical plan's static estimates,
// never the physical ones, so every re-plan of one spec, by either
// planner and for any workset size, decides the same. The producer must be
// a dynamic-path operator whose only consumer is the sink and that has no
// combiner yet. FoldWorkset reports whether it absorbed the fold.
func FoldWorkset(plan *PhysPlan, sinkID int, fold *dataflow.Node, keys int64) bool {
	var p *PhysNode
	for _, s := range plan.Sinks {
		if s.Logical.ID == sinkID && len(s.Inputs) == 1 {
			p = s.Inputs[0].From
		}
	}
	if p == nil || p.Role != RoleOperator || !p.OnDynamicPath || p.Combiner != nil {
		return false
	}
	last := p.Logical
	if p.Union != nil {
		last = p.Union
	}
	if len(p.FusedChain) > 0 {
		last = p.FusedChain[len(p.FusedChain)-1]
	}
	in := last.EstRecords
	if keys <= 0 || in <= 0 {
		return false
	}
	out := min(keys*int64(max(plan.Parallelism, 1)), in)
	if out*foldMinReduction > in {
		return false
	}
	for _, n := range plan.Nodes {
		for _, e := range n.Inputs {
			if e.From == p && n.Logical.ID != sinkID {
				return false
			}
		}
	}
	p.Combiner = fold
	p.EstOut = out
	return true
}
