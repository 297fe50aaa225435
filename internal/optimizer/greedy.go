package optimizer

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// greedyPlan is the zero-statistics fast-path planner. Where the cost-based
// planner enumerates candidates per node, propagates interesting
// properties, and prunes dominated alternatives, the greedy planner makes
// exactly one pass over the logical plan (creation order is topological)
// and commits to one physical node per logical node by structural rules:
//
//   - reuse existing partitioning: an input already hash-partitioned on
//     the key a consumer needs is forwarded; anything else is hash-shipped
//     on that key;
//   - hash everything: joins are hash joins, aggregations are hash
//     aggregations (sort-based strategies only when the order is already
//     there for free);
//   - build the smaller estimated side of a join — unless exactly one side
//     is loop-invariant, in which case that side is built: its table is
//     cached and pays once regardless of size (§4.3);
//   - combiners before shuffles, exactly like the cost-based planner,
//     because the rule needs no statistics.
//
// It never broadcasts without an explicit JoinHint: broadcast trades
// network volume against statistics the fast path does not trust.
//
// Plan cost is still accumulated with the shared weight formulas, so the
// feedback-grant comparison in Optimize works identically for both
// planners, but no alternative is ever costed — planning time is linear in
// plan size and typically ~10–100× below the enumerator's.
func greedyPlan(p *dataflow.Plan, opt Options, php map[int]Props) (*PhysPlan, []Props, error) {
	// Logical node IDs are dense creation-order indices, so all per-node
	// state lives in one slice — the fast path avoids map traffic entirely.
	// Physical nodes and edges come out of pre-sized arenas: the node count
	// is bounded by one per logical node plus one combiner per reduce, and
	// the edge count by the logical in-degrees plus those combiner edges,
	// so neither arena ever reallocates (which would split aliased nodes).
	nn := len(p.Nodes())
	maxNodes, maxEdges := nn, 0
	for _, n := range p.Nodes() {
		maxEdges += len(n.Inputs)
		if n.Contract == dataflow.ReduceOp {
			maxNodes++
			maxEdges++
		}
	}
	sinks := p.Sinks()
	// Typical algorithm plans fit the slab: the planning state, the plan
	// header, both arenas, the topological order, the sink list, and the
	// sink-props view come out of one allocation. Oversized plans fall
	// back to individual makes.
	g := greedy{plan: p, opt: opt, phProps: php}
	var plan *PhysPlan
	var sinkProps []Props
	if maxNodes <= slabNodes && maxEdges <= slabEdges && len(sinks) <= slabSinks {
		slab := new(planSlab)
		g.state = slab.state[:nn]
		g.arena = slab.nodes[:0:slabNodes]
		g.earena = slab.edges[:0:slabEdges]
		g.order = slab.order[:0:slabNodes]
		plan = &slab.plan
		plan.Sinks = slab.sinks[:0:slabSinks]
		plan.Placeholders = slab.phs[:0:len(slab.phs)]
		sinkProps = slab.props[:nn]
	} else {
		g.state = make([]gnode, nn)
		g.arena = make([]PhysNode, 0, maxNodes)
		g.earena = make([]Edge, 0, maxEdges)
		g.order = make([]*PhysNode, 0, maxNodes)
		plan = &PhysPlan{Sinks: make([]*PhysNode, 0, len(sinks))}
		sinkProps = make([]Props, nn)
	}
	// Same bottom-up estimate and dynamic-path passes as the cost planner.
	var inEst [2]int64
	for _, n := range p.Nodes() {
		in := inEst[:0]
		d := n.Contract == dataflow.IterationInput ||
			n.Contract == dataflow.SolutionJoin ||
			n.Contract == dataflow.SolutionCoGroup
		for _, pre := range n.Inputs {
			in = append(in, g.state[pre.ID].est)
			d = d || g.state[pre.ID].dynamic
		}
		g.state[n.ID].est = estimateOut(n, in)
		g.state[n.ID].dynamic = d
	}
	for _, n := range p.Nodes() {
		if err := g.build(n); err != nil {
			return nil, nil, err
		}
	}
	plan.Parallelism = opt.Parallelism
	plan.Hosts = opt.Hosts
	plan.Cost = g.cost
	for _, sink := range sinks {
		plan.Sinks = append(plan.Sinks, g.state[sink.ID].node)
		sinkProps[sink.ID] = g.state[sink.ID].props
	}
	finalizeOrdered(plan, g.order, opt.ExpectedIterations)
	return plan, sinkProps, nil
}

// Slab capacities: every algorithm plan in the repo is 6–10 logical nodes;
// 12 covers them with room for combiners. Larger plans take the make path.
const (
	slabNodes = 12
	slabEdges = 16
	slabSinks = 4
)

// planSlab backs one greedy plan with a single allocation.
type planSlab struct {
	plan  PhysPlan
	state [slabNodes]gnode
	nodes [slabNodes]PhysNode
	edges [slabEdges]Edge
	order [slabNodes]*PhysNode
	sinks [slabSinks]*PhysNode
	phs   [2]*PhysNode
	// props is the per-sink output-properties view, indexed by the dense
	// logical node ID (only sink IDs are filled in).
	props [slabNodes]Props
}

// gnode is the per-logical-node planning state, indexed by the dense
// creation-order node ID.
type gnode struct {
	est     int64
	props   Props
	node    *PhysNode
	dynamic bool
}

type greedy struct {
	plan    *dataflow.Plan
	opt     Options
	phProps map[int]Props
	state   []gnode
	arena   []PhysNode  // slab all physical nodes are carved from
	earena  []Edge      // slab all input-edge slices are carved from
	order   []*PhysNode // every physical node in creation (= topological) order
	cost    float64
}

// newNode carves a physical node out of the arena. The arena is pre-sized
// to the worst case, so the backing array never moves under the pointers
// already handed out.
func (g *greedy) newNode(pn PhysNode) *PhysNode {
	g.arena = append(g.arena, pn)
	return &g.arena[len(g.arena)-1]
}

// edges carves an input-edge slice out of the edge arena, capped so the
// neighbouring slices can never be clobbered by a later append.
func (g *greedy) edges(es ...Edge) []Edge {
	lo := len(g.earena)
	g.earena = append(g.earena, es...)
	return g.earena[lo:len(g.earena):len(g.earena)]
}

// factor is the iteration weight of work attributed to a logical node.
func (g *greedy) factor(id int) float64 {
	if g.state[id].dynamic {
		return float64(g.opt.ExpectedIterations)
	}
	return 1
}

// edge builds the input edge from logical producer pre, charging its
// shipping cost at the producer's iteration weight.
func (g *greedy) edge(pre *dataflow.Node, ship ShipStrategy, key record.KeyFunc) Edge {
	g.cost += shipCost(ship, g.state[pre.ID].est, g.opt.Parallelism, g.opt.Hosts) * g.factor(pre.ID)
	return Edge{From: g.state[pre.ID].node, Ship: ship, Key: key}
}

// keyedEdge forwards when the producer is already partitioned on the key
// and hash-ships otherwise — the core reuse-existing-partitioning rule.
func (g *greedy) keyedEdge(pre *dataflow.Node, k record.KeyFunc) Edge {
	if g.state[pre.ID].props.Part == record.KeyID(k) {
		return g.edge(pre, ShipForward, nil)
	}
	return g.edge(pre, ShipPartition, k)
}

// commit records the finished physical node and its output properties.
func (g *greedy) commit(n *dataflow.Node, pn *PhysNode, props Props) {
	pn.EstOut = g.state[n.ID].est
	g.state[n.ID].node = pn
	g.state[n.ID].props = props
	g.order = append(g.order, pn)
}

// build constructs the single physical node for one logical node.
func (g *greedy) build(n *dataflow.Node) error {
	f := g.factor(n.ID)
	est := g.state[n.ID].est
	switch n.Contract {
	case dataflow.Source, dataflow.IterationInput:
		props := Props{}
		if n.Contract == dataflow.IterationInput {
			props = g.phProps[n.ID]
		}
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n}), props)
		return nil

	case dataflow.MapOp:
		pre := n.Inputs[0]
		e := g.edge(pre, ShipForward, nil)
		g.cost += wCPU * float64(g.state[pre.ID].est) * f
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Inputs: g.edges(e)}),
			preservedProps(n, 0, g.state[pre.ID].props))
		return nil

	case dataflow.UnionOp:
		lo := len(g.earena)
		var props Props
		for i, pre := range n.Inputs {
			g.earena = append(g.earena, g.edge(pre, ShipForward, nil))
			cp := g.state[pre.ID].props
			if i == 0 {
				props = cp
				continue
			}
			if props.Part != cp.Part {
				props.Part = 0
			}
			props.Repl = props.Repl && cp.Repl
		}
		edges := g.earena[lo:len(g.earena):len(g.earena)]
		props.Sort = 0 // concatenation destroys per-partition order
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Inputs: edges}), props)
		return nil

	case dataflow.ReduceOp:
		return g.buildReduce(n, f, est)

	case dataflow.MatchOp:
		return g.buildMatch(n, f, est)

	case dataflow.CrossOp:
		return g.buildCross(n, f)

	case dataflow.SolutionJoin, dataflow.SolutionCoGroup:
		pre := n.Inputs[0]
		kid := record.KeyID(n.Keys[0])
		e := g.keyedEdge(pre, n.Keys[0])
		g.cost += wCPU * float64(g.state[pre.ID].est) * f
		props := Props{Part: kid}
		if !n.PreservesKey(0, kid) {
			props = Props{}
		}
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n,
			Local: LocalSolutionIndex, Inputs: g.edges(e)}), props)
		return nil

	case dataflow.Sink:
		pre := n.Inputs[0]
		if k, ok := g.opt.SinkPartition[n.ID]; ok {
			kid := record.KeyID(k)
			e := g.keyedEdge(pre, k)
			props := g.state[pre.ID].props
			if e.Ship == ShipPartition {
				props = Props{Part: kid}
			}
			g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Inputs: g.edges(e)}), props)
			return nil
		}
		e := g.edge(pre, ShipForward, nil)
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Inputs: g.edges(e)}),
			g.state[pre.ID].props)
		return nil
	}
	return fmt.Errorf("optimizer: greedy planner: unsupported contract %s", n.Contract)
}

// buildReduce: hash aggregation behind the reuse-or-ship rule, with a
// combiner in front of any shuffle when the UDF allows one. Sort
// aggregation only when the input order is already there.
func (g *greedy) buildReduce(n *dataflow.Node, f float64, est int64) error {
	pre := n.Inputs[0]
	kid := record.KeyID(n.Keys[0])
	inProps := g.state[pre.ID].props
	preF := g.factor(pre.ID)
	src, srcEst := g.state[pre.ID].node, g.state[pre.ID].est

	if inProps.Part == kid {
		e := g.edge(pre, ShipForward, nil)
		if inProps.Sort == kid {
			g.cost += wGroup * float64(srcEst) * f
			pn := g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalSortAgg,
				Inputs: g.edges(e), SortKey: n.Keys[0]})
			g.commit(n, pn, Props{Part: kid, Sort: kid})
			return nil
		}
		g.cost += (wGroup*float64(srcEst) + wBuild*float64(est)) * f
		g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalHashAgg,
			Inputs: g.edges(e)}), Props{Part: kid})
		return nil
	}

	if n.Combinable {
		comb := g.newNode(PhysNode{Role: RoleCombiner, Logical: n, Local: LocalHashAgg,
			Inputs: g.edges(Edge{From: src, Ship: ShipForward})})
		combOut := est * int64(g.opt.Parallelism)
		if combOut > srcEst {
			combOut = srcEst
		}
		comb.EstOut = combOut
		g.order = append(g.order, comb)
		g.cost += wGroup * float64(srcEst) * preF
		src, srcEst = comb, combOut
	}
	g.cost += shipCost(ShipPartition, srcEst, g.opt.Parallelism, g.opt.Hosts) * preF
	e := Edge{From: src, Ship: ShipPartition, Key: n.Keys[0]}
	g.cost += (wGroup*float64(srcEst) + wBuild*float64(est)) * f
	g.commit(n, g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalHashAgg,
		Inputs: g.edges(e)}), Props{Part: kid})
	return nil
}

// buildMatch: hash join with co-partitioned inputs; the build side is the
// smaller estimated input, except that a loop-invariant side is always
// built (its table is cached and pays once). Broadcast only on explicit
// hint.
func (g *greedy) buildMatch(n *dataflow.Node, f float64, est int64) error {
	l, r := n.Inputs[0], n.Inputs[1]
	lkid, rkid := record.KeyID(n.Keys[0]), record.KeyID(n.Keys[1])
	switch g.opt.JoinHints[n.ID] {
	case HintBroadcastLeft:
		return g.buildBroadcastJoin(n, 0, f, est)
	case HintBroadcastRight:
		return g.buildBroadcastJoin(n, 1, f, est)
	}
	le := g.keyedEdge(l, n.Keys[0])
	re := g.keyedEdge(r, n.Keys[1])
	lDyn, rDyn := g.state[l.ID].dynamic, g.state[r.ID].dynamic
	build := 0
	switch {
	case lDyn != rDyn:
		if lDyn {
			build = 1
		}
	case g.state[r.ID].est < g.state[l.ID].est:
		build = 1
	}
	buildIn, probeIn := l, r
	if build == 1 {
		buildIn, probeIn = r, l
	}
	g.cost += wBuild*float64(g.state[buildIn.ID].est)*g.factor(buildIn.ID) +
		wCPU*float64(max(g.state[probeIn.ID].est, est))*f
	pn := g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalHashJoin,
		Inputs: g.edges(le, re), BuildSide: build})
	g.commit(n, pn, matchOutProps(n, lkid, rkid))
	return nil
}

// buildBroadcastJoin honors an explicit broadcast hint: the hinted side is
// replicated and hash-built, the other streams through in place.
func (g *greedy) buildBroadcastJoin(n *dataflow.Node, bcast int, f float64, est int64) error {
	b, s := n.Inputs[bcast], n.Inputs[1-bcast]
	edges := g.broadcastEdges(n, bcast)
	g.cost += wBuild*float64(g.state[b.ID].est)*float64(g.opt.Parallelism)*g.factor(b.ID) +
		wCPU*float64(max(g.state[s.ID].est, est))*f
	pn := g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalHashJoin,
		Inputs: edges, BuildSide: bcast})
	g.commit(n, pn, preservedProps(n, 1-bcast, g.state[s.ID].props))
	return nil
}

// buildCross broadcasts the smaller estimated side as the block-built
// input; the larger side streams in place.
func (g *greedy) buildCross(n *dataflow.Node, f float64) error {
	l, r := n.Inputs[0], n.Inputs[1]
	build, s := 0, r
	if g.state[r.ID].est < g.state[l.ID].est {
		build, s = 1, l
	}
	edges := g.broadcastEdges(n, build)
	g.cost += wCPU * float64(g.state[l.ID].est) * float64(g.state[r.ID].est) * f
	pn := g.newNode(PhysNode{Role: RoleOperator, Logical: n, Local: LocalBlockCross,
		Inputs: edges, BuildSide: build})
	g.commit(n, pn, preservedProps(n, 1-build, g.state[s.ID].props))
	return nil
}

// broadcastEdges are n's input edges, in input order, when input bcast is
// replicated (forwarded when it is replicated already) and the other stays
// in place.
func (g *greedy) broadcastEdges(n *dataflow.Node, bcast int) []Edge {
	b, s := n.Inputs[bcast], n.Inputs[1-bcast]
	ship := ShipBroadcast
	if g.state[b.ID].props.Repl {
		ship = ShipForward
	}
	be := g.edge(b, ship, nil)
	se := g.edge(s, ShipForward, nil)
	if bcast == 1 {
		return g.edges(se, be)
	}
	return g.edges(be, se)
}
