package optimizer

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// PlannerKind selects the planning algorithm.
type PlannerKind int

// The planners.
const (
	// PlannerAuto defers the choice to the caller's context: iteration
	// drivers resolve it to PlannerCost for the initial plan and to
	// PlannerGreedy for re-optimizations inside a running iteration, where
	// planning latency is on the superstep path. A direct Optimize call
	// has no such context and treats it as PlannerCost.
	PlannerAuto PlannerKind = iota
	// PlannerCost is the full §4.3 enumeration: interesting-property
	// propagation, candidate generation and pruning, feedback-closed
	// costing.
	PlannerCost
	// PlannerGreedy is the zero-statistics fast path (greedy.go): one
	// structural rule per contract, no candidate enumeration.
	PlannerGreedy
)

func (k PlannerKind) String() string {
	switch k {
	case PlannerAuto:
		return "auto"
	case PlannerCost:
		return "cost"
	case PlannerGreedy:
		return "greedy"
	}
	return fmt.Sprintf("planner(%d)", int(k))
}

// Options configures one optimization run.
type Options struct {
	// Parallelism is the number of partitions (degree of parallelism).
	Parallelism int
	// Hosts is the number of processes the partitions will be spread over
	// under contiguous placement (0 counts as 1). shipCost charges the
	// in-memory rate for the share of partition crossings that stay in the
	// process and the network rate for the rest: a single-process plan
	// pays only in-memory hops, and plans for a distributed session
	// prefer strategies that keep records local.
	Hosts int
	// ExpectedIterations weights the dynamic data path's cost (§4.3: "we
	// weigh the cost of the dynamic data path by a factor proportional to
	// the expected number of iterations"). 0 or 1 means non-iterative.
	ExpectedIterations int
	// PlaceholderProps grants physical properties to IterationInput
	// placeholders (e.g. the working set arrives partitioned by its key
	// because the previous superstep's queues were partitioned).
	PlaceholderProps map[int]Props
	// SinkPartition requires the input of the given sink (by logical node
	// ID) to be hash-partitioned on the given key — used by the iteration
	// drivers so delta sets merge locally and worksets re-enter
	// partitioned.
	SinkPartition map[int]record.KeyFunc
	// Feedback maps IterationInput placeholder IDs to the sink ID whose
	// output becomes the placeholder's data next iteration. The optimizer
	// propagates interesting properties across this loop edge with the
	// paper's two-traversal scheme (§4.3).
	Feedback map[int]int
	// JoinHints pins the shipping strategy of individual Match nodes (by
	// logical node ID), used to reproduce specific plans (e.g. the two
	// Figure-4 PageRank variants) regardless of the cost model.
	JoinHints map[int]JoinHint
	// Planner selects the planning algorithm. The zero value (PlannerAuto)
	// behaves like PlannerCost here; iteration drivers resolve it to the
	// greedy fast path when re-optimizing mid-run.
	Planner PlannerKind
	// Fuse runs the operator-fusion rewrite (fuse.go) on the chosen plan:
	// chains of adjacent Map operators connected by exclusive forward
	// edges collapse into single fused nodes, and a combiner on such an
	// edge is absorbed into its producer, eliminating one exchange hop,
	// one batch copy and one pool round-trip per fused edge per
	// superstep.
	Fuse bool
}

// JoinHint restricts the strategies enumerated for a Match node.
type JoinHint int

// Join hints.
const (
	// HintNone lets the cost model decide.
	HintNone JoinHint = iota
	// HintBroadcastLeft replicates input 0 and keeps input 1 in place.
	HintBroadcastLeft
	// HintBroadcastRight replicates input 1 and keeps input 0 in place.
	HintBroadcastRight
	// HintRepartition partitions both inputs on the join keys.
	HintRepartition
)

// Optimize compiles the logical plan into a physical plan.
//
// When Feedback is set, optimization closes the loop: after an initial
// pass, the physical properties the chosen plan establishes at each
// feedback sink are granted to the corresponding IterationInput (the data
// re-enters the loop with exactly those properties), and the plan is
// re-optimized under that assumption; the cheaper plan wins. This realizes
// §4.3's observation that "the IPs propagated down from O depend through
// the feedback on the IPs created for I".
func Optimize(p *dataflow.Plan, opt Options) (*PhysPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = 1
	}
	if opt.ExpectedIterations <= 0 {
		opt.ExpectedIterations = 1
	}

	run := func(php map[int]Props) (*PhysPlan, []Props, error) {
		if opt.Planner == PlannerGreedy {
			return greedyPlan(p, opt, php)
		}
		o := &optz{
			plan:      p,
			opt:       opt,
			phProps:   php,
			consumers: p.Consumers(),
			est:       make(map[int]int64),
			dynamic:   make(map[int]bool),
			memo:      make(map[int][]cand),
			ips:       make(map[int][]ipEntry),
			keyReg:    make(map[uintptr]record.KeyFunc),
		}
		o.computeEstimates()
		o.computeDynamic()
		o.registerKeys()
		o.collectIPs()
		return o.assemble()
	}

	// Snapshot the feedback edges once into a small sorted buffer: the
	// closure logic below walks them up to three times, and repeated map
	// iteration (randomized order, iterator setup) is measurable at the
	// fast path's timescale. Sorting also makes multi-edge grant order
	// deterministic.
	var fbBuf [4]fbEdge
	fb := fbBuf[:0]
	for ph, sinkID := range opt.Feedback {
		fb = append(fb, fbEdge{ph, sinkID})
	}
	for i := 1; i < len(fb); i++ { // insertion sort: len is 0 or 1 in practice
		for j := i; j > 0 && fb[j].ph < fb[j-1].ph; j-- {
			fb[j], fb[j-1] = fb[j-1], fb[j]
		}
	}

	// Greedy fast path for the loop closure: where the cost-based planner
	// optimizes twice and compares costs, the greedy planner grants the
	// feedback properties structurally — a feedback sink pinned to a
	// partitioning key (the iteration drivers always pin the workset sink)
	// re-enters the loop with exactly that partitioning. One pass, no
	// comparison; if the grant turns out not to hold, fall through to the
	// generic two-pass closure below.
	if opt.Planner == PlannerGreedy && len(fb) > 0 {
		needGrant := false
		for _, e := range fb {
			if _, ok := opt.SinkPartition[e.sink]; ok && opt.PlaceholderProps[e.ph].Part == 0 {
				needGrant = true
				break
			}
		}
		if needGrant {
			granted := make(map[int]Props, len(opt.PlaceholderProps)+len(fb))
			for k, v := range opt.PlaceholderProps {
				granted[k] = v
			}
			for _, e := range fb {
				if k, ok := opt.SinkPartition[e.sink]; ok && granted[e.ph].Part == 0 {
					g := granted[e.ph]
					g.Part = record.KeyID(k)
					granted[e.ph] = g
				}
			}
			plan, sinkProps, err := run(granted)
			if err == nil && feedbackConsistent(fb, granted, sinkProps) {
				return finishPlan(p, opt, plan, granted), nil
			}
		}
	}

	plan, sinkProps, err := run(opt.PlaceholderProps)
	if err != nil {
		return nil, err
	}
	// The granted view starts as the caller's placeholder properties and is
	// only copied if the feedback closure actually upgrades a grant.
	granted := opt.PlaceholderProps
	if len(fb) > 0 {
		var upgraded map[int]Props
		for _, e := range fb {
			sp := sinkProps[e.sink]
			if sp.Part != 0 && granted[e.ph].Part != sp.Part {
				if upgraded == nil {
					upgraded = make(map[int]Props, len(opt.PlaceholderProps)+len(fb))
					for k, v := range opt.PlaceholderProps {
						upgraded[k] = v
					}
				}
				g := upgraded[e.ph]
				g.Part = sp.Part
				upgraded[e.ph] = g
			}
		}
		if upgraded != nil {
			plan2, sinkProps2, err2 := run(upgraded)
			if err2 == nil && plan2.Cost < plan.Cost && feedbackConsistent(fb, upgraded, sinkProps2) {
				plan, sinkProps = plan2, sinkProps2
				granted = upgraded
			}
		}
	}
	return finishPlan(p, opt, plan, granted), nil
}

// fbEdge is one feedback edge: placeholder logical ID → sink logical ID.
type fbEdge struct{ ph, sink int }

// finishPlan applies the shared planning tail: it records how each
// placeholder's data must be partitioned when re-injected (so the granted
// loop assumption holds) and runs the fusion rewrite when requested.
func finishPlan(p *dataflow.Plan, opt Options, plan *PhysPlan, granted map[int]Props) *PhysPlan {
	plan.Planner = PlannerCost
	if opt.Planner == PlannerGreedy {
		plan.Planner = PlannerGreedy
	}
	for _, pn := range plan.Placeholders {
		if g, ok := granted[pn.Logical.ID]; ok && g.Part != 0 {
			pn.InjectKey = keyByID(p, opt, g.Part)
		}
	}
	if opt.Fuse {
		plan.Fused = Fuse(plan, opt.ExpectedIterations)
	}
	return plan
}

// keyByID resolves one key identity to its function — a linear scan over
// the plan's key selectors, so the hot planning path does not rebuild the
// whole registry map per call.
func keyByID(p *dataflow.Plan, opt Options, id uintptr) record.KeyFunc {
	match := func(k record.KeyFunc) bool { return k != nil && record.KeyID(k) == id }
	for _, n := range p.Nodes() {
		if match(n.Keys[0]) {
			return n.Keys[0]
		}
		if match(n.Keys[1]) {
			return n.Keys[1]
		}
		for i := range n.Preserves {
			for _, k := range n.Preserves[i] {
				if match(k) {
					return k
				}
			}
		}
	}
	for _, k := range opt.SinkPartition {
		if match(k) {
			return k
		}
	}
	return nil
}

// feedbackConsistent verifies the re-optimized plan actually establishes
// the properties that were granted to the placeholders.
// sinkProps is indexed by the dense logical node ID.
func feedbackConsistent(fb []fbEdge, granted map[int]Props, sinkProps []Props) bool {
	for _, e := range fb {
		g := granted[e.ph]
		if g.Part != 0 && sinkProps[e.sink].Part != g.Part {
			return false
		}
	}
	return true
}

// registryOf maps key identities to key functions over all keys mentioned
// in the plan and options.
func registryOf(p *dataflow.Plan, opt Options) map[uintptr]record.KeyFunc {
	reg := make(map[uintptr]record.KeyFunc)
	add := func(k record.KeyFunc) {
		if k != nil {
			reg[record.KeyID(k)] = k
		}
	}
	for _, n := range p.Nodes() {
		add(n.Keys[0])
		add(n.Keys[1])
		for i := range n.Preserves {
			for _, k := range n.Preserves[i] {
				add(k)
			}
		}
	}
	for _, k := range opt.SinkPartition {
		add(k)
	}
	return reg
}

// cand is one physical alternative for a logical node's output.
type cand struct {
	node  *PhysNode
	props Props
	cost  float64
}

type ipEntry struct {
	part record.KeyFunc
	sort record.KeyFunc
}

func (e ipEntry) props() Props {
	return Props{Part: record.KeyID(e.part), Sort: record.KeyID(e.sort)}
}

type optz struct {
	plan      *dataflow.Plan
	opt       Options
	phProps   map[int]Props // effective placeholder properties this pass
	consumers map[int][]*dataflow.Node
	est       map[int]int64
	dynamic   map[int]bool
	memo      map[int][]cand
	ips       map[int][]ipEntry // logical node ID -> IPs on its output
	keyReg    map[uintptr]record.KeyFunc
	nextID    int
	err       error
}

// registerKeys records all key selectors so property ids can be mapped
// back to functions.
func (o *optz) registerKeys() {
	o.keyReg = registryOf(o.plan, o.opt)
}

// computeEstimates fills o.est bottom-up (nodes are in creation order, so
// inputs precede consumers).
func (o *optz) computeEstimates() {
	for _, n := range o.plan.Nodes() {
		in := make([]int64, len(n.Inputs))
		for i, p := range n.Inputs {
			in[i] = o.est[p.ID]
		}
		o.est[n.ID] = estimateOut(n, in)
	}
}

// computeDynamic marks nodes on the dynamic data path: descendants of
// IterationInput placeholders and the stateful solution-set operators
// (§4.1: "all nodes and edges on the path from I to O"; everything else is
// the constant data path).
func (o *optz) computeDynamic() {
	for _, n := range o.plan.Nodes() {
		d := n.Contract == dataflow.IterationInput ||
			n.Contract == dataflow.SolutionJoin ||
			n.Contract == dataflow.SolutionCoGroup
		for _, in := range n.Inputs {
			d = d || o.dynamic[in.ID]
		}
		o.dynamic[n.ID] = d
	}
}

// iterFactor returns the cost multiplier for work attributed to the given
// producer/consumer pair: dynamic-path work re-executes every iteration;
// constant-path work (and cached constant->dynamic edges) runs once.
func (o *optz) iterFactor(dynamic bool) float64 {
	if dynamic {
		return float64(o.opt.ExpectedIterations)
	}
	return 1
}

// ipsCreatedBy returns the interesting properties operator n creates for
// its input i (§4.3: IP_{P,e} depends on the possible execution strategies
// of P).
func (o *optz) ipsCreatedBy(n *dataflow.Node, i int) []ipEntry {
	switch n.Contract {
	case dataflow.ReduceOp:
		return []ipEntry{{part: n.Keys[0], sort: n.Keys[0]}, {part: n.Keys[0]}}
	case dataflow.MatchOp:
		return []ipEntry{{part: n.Keys[i]}}
	case dataflow.SolutionJoin, dataflow.SolutionCoGroup:
		return []ipEntry{{part: n.Keys[0]}}
	case dataflow.Sink:
		if k, ok := o.opt.SinkPartition[n.ID]; ok {
			return []ipEntry{{part: k}}
		}
	}
	return nil
}

// collectIPs performs the top-down interesting-property traversal. With
// loop feedback it runs twice, feeding the properties gathered at each
// IterationInput back to the producing sink's input edge (§4.3: "the
// optimization performs two top down traversals over G, feeding the IPs
// from the first traversal back from I to O for the second traversal").
func (o *optz) collectIPs() {
	passes := 1
	if len(o.opt.Feedback) > 0 {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		nodes := o.plan.Nodes()
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			for i, in := range n.Inputs {
				for _, ip := range o.ipsCreatedBy(n, i) {
					o.addIP(in.ID, ip)
				}
				// Inherited properties survive the UDF only for keys the
				// OutputContract declares preserved.
				for _, ip := range o.ips[n.ID] {
					inherited := ipEntry{}
					if ip.part != nil && n.PreservesKey(i, record.KeyID(ip.part)) {
						inherited.part = ip.part
					}
					if ip.sort != nil && n.PreservesKey(i, record.KeyID(ip.sort)) {
						inherited.sort = ip.sort
					}
					if inherited.part != nil || inherited.sort != nil {
						o.addIP(in.ID, inherited)
					}
				}
			}
		}
		// Feed IPs across the loop edge: what the placeholder's consumers
		// want, the sink's producer should establish.
		for phID, sinkID := range o.opt.Feedback {
			sink := o.plan.Nodes()[sinkID]
			if sink.Contract != dataflow.Sink || len(sink.Inputs) == 0 {
				continue
			}
			for _, ip := range o.ips[phID] {
				o.addIP(sink.Inputs[0].ID, ip)
			}
		}
	}
}

func (o *optz) addIP(nodeID int, ip ipEntry) {
	want := ip.props()
	for _, have := range o.ips[nodeID] {
		if have.props() == want {
			return
		}
	}
	o.ips[nodeID] = append(o.ips[nodeID], ip)
}

func (o *optz) newNode(role Role, logical *dataflow.Node, local LocalStrategy, inputs []Edge) *PhysNode {
	n := &PhysNode{ID: o.nextID, Role: role, Logical: logical, Local: local, Inputs: inputs}
	o.nextID++
	return n
}

// edge builds a physical edge from candidate c with the given strategy and
// returns it with its cost. producerDynamic controls iteration weighting.
func (o *optz) edge(c cand, ship ShipStrategy, key record.KeyFunc, producerDynamic bool) (Edge, float64) {
	cost := shipCost(ship, c.est(o), o.opt.Parallelism, o.opt.Hosts) * o.iterFactor(producerDynamic)
	return Edge{From: c.node, Ship: ship, Key: key}, cost
}

// est returns the producer's output estimate.
func (c cand) est(o *optz) int64 {
	return c.node.EstOut
}

// enumerate returns the candidate set for a logical node, memoized. Nodes
// with multiple consumers are frozen to their single best candidate so the
// physical DAG shares one copy of the subplan.
func (o *optz) enumerate(n *dataflow.Node) []cand {
	if cs, ok := o.memo[n.ID]; ok {
		return cs
	}
	cs := o.candidates(n)
	cs = o.withEnforcers(n, cs)
	cs = prune(cs)
	if len(o.consumers[n.ID]) > 1 {
		cs = []cand{best(cs)}
	}
	o.memo[n.ID] = cs
	return cs
}

func best(cs []cand) cand {
	b := cs[0]
	for _, c := range cs[1:] {
		if c.cost < b.cost {
			b = c
		}
	}
	return b
}

// prune keeps, for each distinct property set, the cheapest candidate, and
// drops candidates dominated by a cheaper candidate covering their
// properties. The result is returned in a deterministic order (cost, then
// properties), so cost ties resolve identically on every run — repeated
// optimizations of the same plan must yield the same physical plan.
func prune(cs []cand) []cand {
	byProps := make(map[Props]cand)
	for _, c := range cs {
		if b, ok := byProps[c.props]; !ok || c.cost < b.cost {
			byProps[c.props] = c
		}
	}
	var out []cand
	for _, c := range byProps {
		dominated := false
		for _, d := range byProps {
			if d.node != c.node && d.cost < c.cost && d.props.covers(c.props) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cost != out[j].cost {
			return out[i].cost < out[j].cost
		}
		pi, pj := out[i].props, out[j].props
		if pi.Part != pj.Part {
			return pi.Part < pj.Part
		}
		if pi.Sort != pj.Sort {
			return pi.Sort < pj.Sort
		}
		return !pi.Repl && pj.Repl
	})
	return out
}

// withEnforcers adds, for every interesting property on n's output that no
// candidate establishes for free, a variant that establishes it with an
// explicit repartition/sort enforcer (§4.3: IPs as hints "to create a plan
// candidate that establishes those properties at that edge").
func (o *optz) withEnforcers(n *dataflow.Node, cs []cand) []cand {
	ips := o.ips[n.ID]
	if len(ips) == 0 || len(cs) == 0 {
		return cs
	}
	dyn := o.dynamic[n.ID]
	out := cs
	for _, ip := range ips {
		want := ip.props()
		for _, c := range cs {
			if c.props.covers(want) {
				continue
			}
			newProps := c.props
			var inEdge Edge
			var cost float64
			if want.Part != 0 && c.props.Part != want.Part {
				inEdge, cost = o.edge(c, ShipPartition, ip.part, dyn)
				newProps.Part = want.Part
				newProps.Sort = 0 // repartitioning destroys order
				newProps.Repl = false
			} else {
				inEdge, cost = o.edge(c, ShipForward, nil, dyn)
			}
			local := LocalNone
			var sortKey record.KeyFunc
			if want.Sort != 0 && newProps.Sort != want.Sort {
				local = LocalSort
				sortKey = ip.sort
				cost += sortCost(c.est(o)) * o.iterFactor(dyn)
				newProps.Sort = want.Sort
			}
			if local == LocalNone && inEdge.Ship == ShipForward {
				continue // nothing to enforce
			}
			enf := o.newNode(RoleEnforcer, n, local, []Edge{inEdge})
			enf.SortKey = sortKey
			enf.EstOut = c.est(o)
			out = append(out, cand{node: enf, props: newProps, cost: c.cost + cost})
		}
	}
	return out
}

// placeholderProps returns props granted to an IterationInput.
func (o *optz) placeholderProps(n *dataflow.Node) Props {
	if p, ok := o.phProps[n.ID]; ok {
		return p
	}
	return Props{}
}

// preservedProps maps input props through the UDF's output contract.
func preservedProps(n *dataflow.Node, i int, in Props) Props {
	out := Props{Repl: in.Repl}
	if in.Part != 0 && n.PreservesKey(i, in.Part) {
		out.Part = in.Part
	}
	if in.Sort != 0 && n.PreservesKey(i, in.Sort) {
		out.Sort = in.Sort
	}
	return out
}

// candidates generates the natural physical alternatives for one node.
func (o *optz) candidates(n *dataflow.Node) []cand {
	dyn := o.dynamic[n.ID]
	f := o.iterFactor(dyn)
	est := o.est[n.ID]
	switch n.Contract {
	case dataflow.Source, dataflow.IterationInput:
		pn := o.newNode(RoleOperator, n, LocalNone, nil)
		pn.EstOut = est
		props := Props{}
		if n.Contract == dataflow.IterationInput {
			props = o.placeholderProps(n)
		}
		return []cand{{node: pn, props: props, cost: 0}}

	case dataflow.MapOp:
		var out []cand
		for _, c := range o.enumerate(n.Inputs[0]) {
			e, ec := o.edge(c, ShipForward, nil, o.dynamic[n.Inputs[0].ID])
			pn := o.newNode(RoleOperator, n, LocalNone, []Edge{e})
			pn.EstOut = est
			out = append(out, cand{
				node:  pn,
				props: preservedProps(n, 0, c.props),
				cost:  c.cost + ec + wCPU*float64(c.est(o))*f,
			})
		}
		return out

	case dataflow.UnionOp:
		// All inputs forwarded; properties are the intersection.
		var edges []Edge
		cost := 0.0
		var props Props
		for i, inNode := range n.Inputs {
			c := best(o.enumerate(inNode))
			e, ec := o.edge(c, ShipForward, nil, o.dynamic[inNode.ID])
			edges = append(edges, e)
			cost += c.cost + ec
			if i == 0 {
				props = c.props
				continue
			}
			if props.Part != c.props.Part {
				props.Part = 0
			}
			if props.Sort != c.props.Sort {
				props.Sort = 0
			}
			props.Repl = props.Repl && c.props.Repl
		}
		pn := o.newNode(RoleOperator, n, LocalNone, edges)
		pn.EstOut = est
		props.Sort = 0 // concatenation destroys per-partition order
		return []cand{{node: pn, props: props, cost: cost}}

	case dataflow.ReduceOp:
		return o.reduceCandidates(n, dyn, f, est)

	case dataflow.MatchOp:
		return o.matchCandidates(n, dyn, f, est)

	case dataflow.CrossOp:
		return o.crossCandidates(n, dyn, f, est)

	case dataflow.SolutionJoin, dataflow.SolutionCoGroup:
		return o.solutionCandidates(n, dyn, f, est)

	case dataflow.Sink:
		var out []cand
		for _, c := range o.enumerate(n.Inputs[0]) {
			inDyn := o.dynamic[n.Inputs[0].ID]
			if k, ok := o.opt.SinkPartition[n.ID]; ok {
				kid := record.KeyID(k)
				ship := ShipPartition
				var key record.KeyFunc = k
				if c.props.Part == kid {
					ship, key = ShipForward, nil
				}
				e, ec := o.edge(c, ship, key, inDyn)
				pn := o.newNode(RoleOperator, n, LocalNone, []Edge{e})
				pn.EstOut = est
				props := c.props
				if ship == ShipPartition {
					props = Props{Part: kid}
				}
				out = append(out, cand{node: pn, props: props, cost: c.cost + ec})
				continue
			}
			e, ec := o.edge(c, ShipForward, nil, inDyn)
			pn := o.newNode(RoleOperator, n, LocalNone, []Edge{e})
			pn.EstOut = est
			out = append(out, cand{node: pn, props: c.props, cost: c.cost + ec})
		}
		return out
	}
	o.err = fmt.Errorf("optimizer: unsupported contract %s", n.Contract)
	return nil
}
