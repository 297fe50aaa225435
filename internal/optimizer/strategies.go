package optimizer

import (
	"repro/internal/dataflow"
	"repro/internal/record"
)

// reduceCandidates enumerates physical alternatives for a Reduce: hash vs.
// sort aggregation, reuse of existing partitioning/order, and an optional
// pre-shuffle combiner for combinable UDFs.
func (o *optz) reduceCandidates(n *dataflow.Node, dyn bool, f float64, est int64) []cand {
	kid := record.KeyID(n.Keys[0])
	var out []cand
	for _, c := range o.enumerate(n.Inputs[0]) {
		if c.props.Repl {
			// Aggregating replicated data would duplicate every group.
			continue
		}
		inDyn := o.dynamic[n.Inputs[0].ID]
		pres := []cand{c} // the producer, and with a combiner stacked on top

		// Combiner variant: pre-aggregate before the shuffle (cf.
		// Combiners in MapReduce/Pregel, §6.1). Only pays off if a
		// shuffle is needed at all.
		if n.Combinable && c.props.Part != kid {
			comb := o.newNode(RoleCombiner, n, LocalHashAgg, []Edge{{From: c.node, Ship: ShipForward}})
			comb.EstOut = min(est*int64(o.opt.Parallelism), c.est(o))
			combCost := wGroup * float64(c.est(o)) * o.iterFactor(inDyn)
			pres = append(pres, cand{node: comb, props: c.props, cost: c.cost + combCost})
		}

		for _, pc := range pres {
			ship := ShipPartition
			var key record.KeyFunc = n.Keys[0]
			if pc.props.Part == kid {
				ship, key = ShipForward, nil
			}
			e, ec := o.edge(pc, ship, key, inDyn)

			// Hash aggregation (charges for building the group table).
			hn := o.newNode(RoleOperator, n, LocalHashAgg, []Edge{e})
			hn.EstOut = est
			hCost := pc.cost + ec +
				(wGroup*float64(pc.est(o))+wBuild*float64(est))*f
			out = append(out, cand{node: hn, props: Props{Part: kid}, cost: hCost})

			// Sort aggregation: free if the input is already sorted on the
			// key and stays in its partition.
			sn := o.newNode(RoleOperator, n, LocalSortAgg, []Edge{e})
			sn.EstOut = est
			sn.SortKey = n.Keys[0]
			sCost := pc.cost + ec + wGroup*float64(pc.est(o))*f
			if !(pc.props.Sort == kid && ship == ShipForward) {
				sCost += sortCost(pc.est(o)) * f
			}
			out = append(out, cand{node: sn, props: Props{Part: kid, Sort: kid}, cost: sCost})
		}
	}
	return out
}

// matchCandidates enumerates the equi-join strategies of §4.3: partition
// both inputs (hash or sort-merge), or broadcast one input and keep the
// other in place (Figure 4's two PageRank plans).
func (o *optz) matchCandidates(n *dataflow.Node, dyn bool, f float64, est int64) []cand {
	lk, rk := n.Keys[0], n.Keys[1]
	lkid, rkid := record.KeyID(lk), record.KeyID(rk)
	hint := o.opt.JoinHints[n.ID]
	var out []cand
	for _, lc := range o.enumerate(n.Inputs[0]) {
		for _, rc := range o.enumerate(n.Inputs[1]) {
			lDyn, rDyn := o.dynamic[n.Inputs[0].ID], o.dynamic[n.Inputs[1].ID]

			// Strategy 1: re-partition both inputs on the join keys.
			if !lc.props.Repl && !rc.props.Repl &&
				(hint == HintNone || hint == HintRepartition) {
				le, lec := o.joinEdge(lc, lk, lkid, lDyn)
				re, rec := o.joinEdge(rc, rk, rkid, rDyn)

				// Hash join: try building either side. Building the
				// loop-invariant side pays only once because the table is
				// cached (§4.3), even when that side is larger.
				for _, build := range []int{0, 1} {
					buildRows, probeRows := lc.est(o), rc.est(o)
					if build == 1 {
						buildRows, probeRows = rc.est(o), lc.est(o)
					}
					buildDyn := []bool{lDyn, rDyn}[build]
					hj := o.newNode(RoleOperator, n, LocalHashJoin, []Edge{le, re})
					hj.BuildSide = build
					hj.EstOut = est
					// Per-pass CPU is dominated by whichever is larger:
					// scanning the probe input or enumerating the matches.
					joinCPU := wCPU * float64(max(probeRows, est)) * f
					cost := lc.cost + rc.cost + lec + rec +
						wBuild*float64(buildRows)*o.iterFactor(buildDyn) + joinCPU
					out = append(out, cand{node: hj, props: matchOutProps(n, lkid, rkid), cost: cost})
				}

				// Sort-merge join.
				smj := o.newNode(RoleOperator, n, LocalSortMergeJoin, []Edge{le, re})
				smj.EstOut = est
				smj.SortKey = lk
				sCost := lc.cost + rc.cost + lec + rec +
					wCPU*float64(max(lc.est(o)+rc.est(o), est))*f
				if !(lc.props.Sort == lkid && le.Ship == ShipForward) {
					sCost += sortCost(lc.est(o)) * o.iterFactor(lDyn)
				}
				if !(rc.props.Sort == rkid && re.Ship == ShipForward) {
					sCost += sortCost(rc.est(o)) * o.iterFactor(rDyn)
				}
				props := matchOutProps(n, lkid, rkid)
				props.Sort = 0
				if n.PreservesKey(0, lkid) {
					props.Sort = lkid
				}
				out = append(out, cand{node: smj, props: props, cost: sCost})
			}

			// Strategy 2: broadcast left, right stays in place.
			if !rc.props.Repl && (hint == HintNone || hint == HintBroadcastLeft) {
				out = append(out, o.broadcastJoin(n, lc, rc, 0, lDyn, rDyn, est, f))
			}
			// Strategy 3: broadcast right, left stays in place.
			if !lc.props.Repl && (hint == HintNone || hint == HintBroadcastRight) {
				out = append(out, o.broadcastJoin(n, lc, rc, 1, lDyn, rDyn, est, f))
			}
		}
	}
	return out
}

// joinEdge builds a partitioning (or forwarding) edge for a join input.
func (o *optz) joinEdge(c cand, k record.KeyFunc, kid uintptr, dyn bool) (Edge, float64) {
	if c.props.Part == kid {
		return o.edge(c, ShipForward, nil, dyn)
	}
	return o.edge(c, ShipPartition, k, dyn)
}

// matchOutProps derives the output properties of a partitioned join, in
// either planner: a key the UDF preserves keeps its input's partitioning.
func matchOutProps(n *dataflow.Node, lkid, rkid uintptr) Props {
	if n.PreservesKey(0, lkid) {
		return Props{Part: lkid}
	}
	if n.PreservesKey(1, rkid) {
		return Props{Part: rkid}
	}
	return Props{}
}

// broadcastJoin builds the broadcast-one-side hash join candidate.
// bcastSide is the input being replicated (and hash-built); the other side
// streams through in place, keeping all its physical properties the UDF
// preserves — this is what lets the Figure-4 "Mahout-style" PageRank plan
// group without any shuffle after the join.
func (o *optz) broadcastJoin(n *dataflow.Node, lc, rc cand, bcastSide int, lDyn, rDyn bool, est int64, f float64) cand {
	cs, dyn := [2]cand{lc, rc}, [2]bool{lDyn, rDyn}
	edges, bec, sec := o.broadcastEdges(cs, dyn, bcastSide)
	pn := o.newNode(RoleOperator, n, LocalHashJoin, edges)
	pn.BuildSide = bcastSide
	pn.EstOut = est
	// The broadcast table is built once per partition.
	buildCost := wBuild * float64(cs[bcastSide].est(o)) * float64(o.opt.Parallelism) * o.iterFactor(dyn[bcastSide])
	joinCPU := wCPU * float64(max(cs[1-bcastSide].est(o), est)) * f
	cost := lc.cost + rc.cost + bec + sec + buildCost + joinCPU
	return cand{node: pn, props: preservedProps(n, 1-bcastSide, cs[1-bcastSide].props), cost: cost}
}

// broadcastEdges are the input edges, in input order, of a two-input node
// that replicates input bcast (forwards it when it is replicated already)
// and keeps the other in place, with the replicated and the kept edge's
// costs.
func (o *optz) broadcastEdges(cs [2]cand, dyn [2]bool, bcast int) (edges []Edge, bcost, scost float64) {
	ship := ShipBroadcast
	if cs[bcast].props.Repl {
		ship = ShipForward
	}
	edges = make([]Edge, 2)
	edges[bcast], bcost = o.edge(cs[bcast], ship, nil, dyn[bcast])
	edges[1-bcast], scost = o.edge(cs[1-bcast], ShipForward, nil, dyn[1-bcast])
	return edges, bcost, scost
}

// crossCandidates enumerates cartesian products: broadcast either side.
func (o *optz) crossCandidates(n *dataflow.Node, dyn bool, f float64, est int64) []cand {
	var out []cand
	for _, lc := range o.enumerate(n.Inputs[0]) {
		for _, rc := range o.enumerate(n.Inputs[1]) {
			cs, dyns := [2]cand{lc, rc}, [2]bool{o.dynamic[n.Inputs[0].ID], o.dynamic[n.Inputs[1].ID]}
			for _, buildSide := range []int{0, 1} {
				edges, bec, sec := o.broadcastEdges(cs, dyns, buildSide)
				pn := o.newNode(RoleOperator, n, LocalBlockCross, edges)
				pn.BuildSide = buildSide
				pn.EstOut = est
				cost := lc.cost + rc.cost + bec + sec +
					wCPU*float64(lc.est(o))*float64(rc.est(o))*f
				out = append(out, cand{node: pn, props: preservedProps(n, 1-buildSide, cs[1-buildSide].props), cost: cost})
			}
		}
	}
	return out
}

// solutionCandidates plans the stateful solution-set operators: the input
// must be partitioned identically to the solution-set index (§5.3), then
// the operator probes/updates the local index partition.
func (o *optz) solutionCandidates(n *dataflow.Node, dyn bool, f float64, est int64) []cand {
	kid := record.KeyID(n.Keys[0])
	var out []cand
	for _, c := range o.enumerate(n.Inputs[0]) {
		if c.props.Repl {
			continue
		}
		inDyn := o.dynamic[n.Inputs[0].ID]
		e, ec := o.joinEdge(c, n.Keys[0], kid, inDyn)
		pn := o.newNode(RoleOperator, n, LocalSolutionIndex, []Edge{e})
		pn.EstOut = est
		cost := c.cost + ec + wCPU*float64(c.est(o))*f
		props := Props{Part: kid}
		if !n.PreservesKey(0, kid) {
			props = Props{}
		}
		out = append(out, cand{node: pn, props: props, cost: cost})
	}
	return out
}

// assemble picks the cheapest candidate per sink and materializes the
// final PhysPlan via finalizePlan. It also returns the chosen physical
// properties per sink (used to close the feedback loop).
func (o *optz) assemble() (*PhysPlan, []Props, error) {
	plan := &PhysPlan{Parallelism: o.opt.Parallelism, Hosts: o.opt.Hosts}
	sinkProps := make([]Props, len(o.plan.Nodes()))
	for _, sink := range o.plan.Sinks() {
		cs := o.enumerate(sink)
		if o.err != nil {
			return nil, nil, o.err
		}
		c := best(cs)
		plan.Cost += c.cost
		plan.Sinks = append(plan.Sinks, c.node)
		sinkProps[sink.ID] = c.props
	}
	finalizePlan(plan, o.opt.ExpectedIterations)
	return plan, sinkProps, nil
}

// finalizePlan materializes the executable form of a plan whose Sinks (and
// the DAG reachable from them) have been chosen: topological node order,
// dense node and edge identities, the placeholder index, dynamic-path
// marking, and cache flags on constant→dynamic edges. It is shared by both
// planners and re-run by the fusion rewrite after it drops nodes.
func finalizePlan(plan *PhysPlan, expectedIterations int) {
	// Topological order via DFS post-order from the sinks.
	seen := make(map[*PhysNode]bool)
	var order []*PhysNode
	var visit func(n *PhysNode)
	visit = func(n *PhysNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.Inputs {
			visit(e.From)
		}
		order = append(order, n)
	}
	for _, r := range plan.Sinks {
		visit(r)
	}
	finalizeOrdered(plan, order, expectedIterations)
}

// finalizeOrdered is finalizePlan for a caller that already has the
// physical nodes in topological order (the greedy planner emits them that
// way), skipping the DFS.
func finalizeOrdered(plan *PhysPlan, order []*PhysNode, expectedIterations int) {
	plan.Placeholders = plan.Placeholders[:0]
	plan.NumEdges = 0
	for i, n := range order {
		n.ID = i
		if n.Logical.Contract == dataflow.IterationInput {
			plan.Placeholders = append(plan.Placeholders, n)
		}
	}
	plan.Nodes = order

	// Assign stable, dense edge identities (in topological consumer
	// order) so the runtime can key per-edge state that survives across
	// Run calls.
	for _, n := range order {
		for i := range n.Inputs {
			n.Inputs[i].ID = plan.NumEdges
			plan.NumEdges++
		}
	}

	// Dynamic-path marking over the physical DAG.
	for _, n := range plan.Nodes {
		d := n.Logical.Contract == dataflow.IterationInput ||
			n.Logical.Contract == dataflow.SolutionJoin ||
			n.Logical.Contract == dataflow.SolutionCoGroup
		for _, e := range n.Inputs {
			d = d || e.From.OnDynamicPath
		}
		n.OnDynamicPath = d
	}

	// Cache constant inputs feeding the dynamic path (§4.3: "caches the
	// intermediate result at the operator where the constant path meets
	// the dynamic path").
	if expectedIterations > 1 {
		for _, n := range plan.Nodes {
			if !n.OnDynamicPath {
				continue
			}
			for i := range n.Inputs {
				if !n.Inputs[i].From.OnDynamicPath {
					n.Inputs[i].Cache = true
				}
			}
		}
	}
}
