// Package optimizer compiles a logical dataflow plan into a physical
// execution plan. Two planners share one physical algebra:
//
//   - The cost-based planner (optimize.go, strategies.go) implements the
//     paper's §4.3: Volcano-style plan enumeration over shipping
//     strategies (forward, hash-partition, broadcast) and local
//     strategies (hash vs. sort-merge join, hash vs. sort aggregation),
//     interesting-property propagation — including the two-pass
//     traversal that feeds properties across the iteration's feedback
//     edge — iteration-weighted costing of the dynamic data path, and
//     caching of the constant data path.
//   - The greedy fast path (greedy.go) skips enumeration entirely and
//     picks strategies by structural rules — reuse partitioning the
//     input already has, hash-ship otherwise, build the smaller (or
//     loop-invariant) join side. It plans in microseconds, which is what
//     mid-iteration re-optimization needs: there, planning latency sits
//     on the superstep path. Options.Planner selects; PlanCache
//     (cache.go) memoizes whole plans, which the benchmark uses to price
//     what skipping planning entirely would buy.
//
// Both planners feed the operator-fusion rewrite (fuse.go), which
// collapses adjacent Map/filter/project chains connected by exclusive
// forward edges into single fused nodes executed record-at-a-time, and
// absorbs a combiner into the node that feeds it.
package optimizer

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// ShipStrategy is how records travel along a physical edge.
type ShipStrategy int

// The shipping strategies of §3/§4.3.
const (
	// ShipForward keeps records in their producing partition (pipelined).
	ShipForward ShipStrategy = iota
	// ShipPartition hash-partitions records by a key across consumers.
	ShipPartition
	// ShipBroadcast replicates every record to every consumer partition.
	ShipBroadcast
)

func (s ShipStrategy) String() string {
	switch s {
	case ShipForward:
		return "forward"
	case ShipPartition:
		return "partition"
	case ShipBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("ship(%d)", int(s))
}

// LocalStrategy is the operator implementation chosen for a physical node.
type LocalStrategy int

// The local strategies.
const (
	// LocalNone streams records through (Map, Union, Sink, sources).
	LocalNone LocalStrategy = iota
	// LocalHashJoin builds a hash table on the build side and probes with
	// the other (BuildSide selects which input is built).
	LocalHashJoin
	// LocalSortMergeJoin sorts both inputs by key and merges.
	LocalSortMergeJoin
	// LocalHashAgg groups via a hash table.
	LocalHashAgg
	// LocalSortAgg sorts by key (or exploits pre-sorted input) and groups
	// sequentially.
	LocalSortAgg
	// LocalHashCoGroup hash-groups both inputs and pairs the groups.
	LocalHashCoGroup
	// LocalSortCoGroup sorts both inputs by key (or exploits existing
	// order) and merges the group pairs sequentially.
	LocalSortCoGroup
	// LocalBlockCross materializes the build side and streams the other.
	LocalBlockCross
	// LocalSort sorts the input by a key (used by enforcer nodes).
	LocalSort
	// LocalSolutionIndex is the stateful solution-set join/cogroup of §5.3:
	// the operator is merged with the partitioned solution-set index.
	LocalSolutionIndex
)

func (l LocalStrategy) String() string {
	switch l {
	case LocalNone:
		return "none"
	case LocalHashJoin:
		return "hash-join"
	case LocalSortMergeJoin:
		return "sort-merge-join"
	case LocalHashAgg:
		return "hash-agg"
	case LocalSortAgg:
		return "sort-agg"
	case LocalHashCoGroup:
		return "hash-cogroup"
	case LocalSortCoGroup:
		return "sort-cogroup"
	case LocalBlockCross:
		return "block-cross"
	case LocalSort:
		return "sort"
	case LocalSolutionIndex:
		return "solution-index"
	}
	return fmt.Sprintf("local(%d)", int(l))
}

// Role distinguishes ordinary operator nodes from the auxiliary nodes the
// optimizer inserts.
type Role int

// Physical node roles.
const (
	// RoleOperator executes the logical node's contract.
	RoleOperator Role = iota
	// RoleCombiner pre-aggregates before a shuffle (for combinable Reduce).
	RoleCombiner
	// RoleEnforcer establishes a physical property (partitioning via its
	// input edge, sorting via LocalSort) without changing the data.
	RoleEnforcer
)

// Edge is a physical input edge.
type Edge struct {
	From *PhysNode
	Ship ShipStrategy
	// Key is the partitioning key when Ship == ShipPartition.
	Key record.KeyFunc
	// Cache marks a constant-data-path edge whose received input is
	// materialized once and reused every iteration (§4.3). For hash-join
	// build sides the runtime caches the built hash table itself
	// (§4.3/§5.3: "the cache stores the records ... possibly as a hash
	// table, or B+-Tree").
	Cache bool
	// ID is the edge's stable identity within its plan, assigned densely
	// in [0, PhysPlan.NumEdges). The runtime keys exchanges by it so a
	// persistent session can allocate one exchange per (edge, partition)
	// and reset — rather than rebuild — it between supersteps.
	ID int
}

// PhysNode is one operator instance in the physical plan (instantiated
// once per partition by the runtime).
type PhysNode struct {
	ID      int
	Role    Role
	Logical *dataflow.Node
	Inputs  []Edge
	Local   LocalStrategy
	// BuildSide selects the hash-join build input (0 or 1).
	BuildSide int
	// SortKey is the sort key for LocalSort / LocalSortAgg /
	// LocalSortMergeJoin output ordering.
	SortKey record.KeyFunc
	// EstOut is the optimizer's output-cardinality estimate.
	EstOut int64
	// OnDynamicPath records whether this node re-executes every iteration.
	OnDynamicPath bool
	// Union is the union the fusion rewrite absorbed into this node (nil
	// if none): this node's own output was the union's input 0, and the
	// union's other inputs are appended to Inputs, starting at
	// len(Logical.Inputs). The runtime streams them, in input order, into
	// the same emitter once this node's operator is done, so the union
	// runs as no task of its own.
	Union *dataflow.Node
	// FusedChain lists the logical Map nodes the fusion rewrite collapsed
	// onto this node's output, in application order: the runtime applies
	// their UDFs record-at-a-time inside this node's emitter instead of
	// crossing an exchange per operator.
	FusedChain []*dataflow.Node
	// Combiner is the combinable Reduce whose pre-aggregation the fusion
	// rewrite absorbed into this node (nil if none): the runtime folds the
	// node's output — after FusedChain — per Combiner.Keys[0] inside the
	// emitter and writes the folded records when the task ends, instead of
	// running a RoleCombiner task behind a forward exchange.
	Combiner *dataflow.Node
	// InjectKey, set on IterationInput placeholders only, is the key the
	// placeholder's data must be hash-partitioned by when re-injected, so
	// that properties granted across the feedback edge hold (nil = any
	// split works).
	InjectKey record.KeyFunc
}

// Name returns a readable label.
func (n *PhysNode) Name() string {
	name := n.Logical.Name
	if n.Union != nil {
		name += "+" + n.Union.Name
	}
	for _, f := range n.FusedChain {
		name += "+" + f.Name
	}
	if n.Combiner != nil {
		name += "+" + n.Combiner.Name + "-combine"
	}
	switch n.Role {
	case RoleCombiner:
		return name + "-combine"
	case RoleEnforcer:
		return name + "-enforce"
	}
	return name
}

// PhysPlan is an executable physical plan.
type PhysPlan struct {
	// Nodes in topological order (inputs precede consumers).
	Nodes []*PhysNode
	// Sinks are the output-collecting nodes.
	Sinks []*PhysNode
	// Placeholders lists the physical IterationInput nodes, for the
	// iteration drivers (a plan rarely has more than one).
	Placeholders []*PhysNode
	// Parallelism is the number of partitions the plan runs with.
	Parallelism int
	// Hosts is the number of processes the partitions are spread over
	// (0 or 1: single-process, the default). Recorded so a distributed
	// session can sanity-check that its plan was costed for its topology.
	Hosts int
	// NumEdges is the number of physical input edges; Edge.ID values are
	// dense in [0, NumEdges), so exchange tables can be flat arrays.
	NumEdges int
	// Cost is the estimated total cost (dynamic path pre-weighted by the
	// expected iteration count).
	Cost float64
	// Fused counts the unions, Map operators and combiners the fusion
	// rewrite folded into upstream nodes (0 when fusion was off or found
	// nothing).
	Fused int
	// Planner is the planning algorithm that chose the plan (PlannerCost
	// or PlannerGreedy). Like Cost, it is not part of the plan's shape.
	Planner PlannerKind
}

// Placeholder returns the physical node for the logical IterationInput
// with the given ID, or nil.
func (p *PhysPlan) Placeholder(logicalID int) *PhysNode {
	for _, pn := range p.Placeholders {
		if pn.Logical.ID == logicalID {
			return pn
		}
	}
	return nil
}

// PlaceholderKey tells the iteration driver which key the placeholder's
// data must be hash-partitioned by when re-injected (nil = any split
// works).
func (p *PhysPlan) PlaceholderKey(logicalID int) record.KeyFunc {
	if pn := p.Placeholder(logicalID); pn != nil {
		return pn.InjectKey
	}
	return nil
}

// Explain renders the plan for debugging and the Figure-4 experiment: one
// line per node with its name (fused Maps and an absorbed combiner
// included), local strategy — with the build input of a hash join or block
// cross — and input edges.
func (p *PhysPlan) Explain() string {
	width := 28
	for _, n := range p.Nodes {
		width = max(width, len(n.Name()))
	}
	s := ""
	for _, n := range p.Nodes {
		s += fmt.Sprintf("%2d %-*s local=%-24s", n.ID, width, n.Name(), n.localLabel())
		for _, e := range n.Inputs {
			cached := ""
			if e.Cache {
				cached = ",cached"
			}
			s += fmt.Sprintf(" <-[%s%s] %s", e.Ship, cached, e.From.Name())
		}
		if n.OnDynamicPath {
			s += "  (dynamic)"
		}
		s += "\n"
	}
	return s
}

// localLabel is the node's local strategy, with the build input where the
// strategy has one.
func (n *PhysNode) localLabel() string {
	if n.Local == LocalHashJoin || n.Local == LocalBlockCross {
		return fmt.Sprintf("%s build=%d", n.Local, n.BuildSide)
	}
	return n.Local.String()
}

// Props are the physical data properties the optimizer tracks per
// candidate output (§4.3's interesting properties).
type Props struct {
	// Part is the KeyID of the hash-partitioning key (0 = unpartitioned).
	Part uintptr
	// Sort is the KeyID of the within-partition sort key (0 = unsorted).
	Sort uintptr
	// Repl marks data replicated to every partition (broadcast result).
	Repl bool
}

// covers reports whether properties p satisfy requirement q: every
// property present in q is present in p.
func (p Props) covers(q Props) bool {
	if q.Part != 0 && p.Part != q.Part {
		return false
	}
	if q.Sort != 0 && p.Sort != q.Sort {
		return false
	}
	if q.Repl && !p.Repl {
		return false
	}
	return true
}
