package optimizer

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// withEst sets n's output-cardinality hint and returns n.
func withEst(n *dataflow.Node, est int64) *dataflow.Node {
	n.EstRecords = est
	return n
}

func simplePlan() (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	src := p.SourceOf("src", []record.Record{{A: 1}, {A: 2}})
	m := p.MapNode("m", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	sink := p.SinkNode("out", m)
	return p, sink
}

func TestOptimizeSimplePlan(t *testing.T) {
	p, _ := simplePlan()
	phys, err := Optimize(p, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(phys.Nodes) != 3 {
		t.Fatalf("want 3 physical nodes, got %d:\n%s", len(phys.Nodes), phys.Explain())
	}
	// Topological order: every input precedes its consumer.
	pos := map[*PhysNode]int{}
	for i, n := range phys.Nodes {
		pos[n] = i
	}
	for _, n := range phys.Nodes {
		for _, e := range n.Inputs {
			if pos[e.From] >= pos[n] {
				t.Errorf("node %s before its input %s", n.Name(), e.From.Name())
			}
		}
	}
	if phys.Explain() == "" {
		t.Error("empty Explain")
	}
}

func TestOptimizeRejectsInvalidPlan(t *testing.T) {
	p := dataflow.NewPlan()
	p.SourceOf("s", nil)
	if _, err := Optimize(p, Options{}); err == nil {
		t.Fatal("want validation error")
	}
}

func joinPlan(smallEst, largeEst int64) (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	small := withEst(p.SourceOf("small", nil), smallEst)
	large := withEst(p.SourceOf("large", nil), largeEst)
	j := p.MatchNode("join", small, large, record.KeyA, record.KeyB,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(r) })
	p.SinkNode("out", j)
	return p, j
}

func findJoin(phys *PhysPlan) *PhysNode {
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.MatchOp && n.Role == RoleOperator {
			return n
		}
	}
	return nil
}

func TestJoinBroadcastsSmallSide(t *testing.T) {
	p, _ := joinPlan(10, 1_000_000)
	phys, err := Optimize(p, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(phys)
	if j == nil {
		t.Fatal("no join in plan")
	}
	if j.Inputs[0].Ship != ShipBroadcast {
		t.Errorf("small side should broadcast, got %s\n%s", j.Inputs[0].Ship, phys.Explain())
	}
	if j.Inputs[1].Ship != ShipForward {
		t.Errorf("large side should stay put, got %s", j.Inputs[1].Ship)
	}
	if j.BuildSide != 0 {
		t.Errorf("broadcast side should be built, got %d", j.BuildSide)
	}
}

func TestJoinPartitionsEqualSides(t *testing.T) {
	p, _ := joinPlan(1_000_000, 1_000_000)
	phys, err := Optimize(p, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(phys)
	for i, e := range j.Inputs {
		if e.Ship == ShipBroadcast {
			t.Errorf("input %d broadcasts a huge dataset\n%s", i, phys.Explain())
		}
	}
}

func TestReduceReusesExistingPartitioning(t *testing.T) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 1000)
	red := p.ReduceNode("agg", w, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {})
	p.SinkNode("out", red)
	phys, err := Optimize(p, Options{
		Parallelism:      4,
		PlaceholderProps: map[int]Props{w.ID: {Part: record.KeyID(record.KeyA)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.ReduceOp {
			if n.Inputs[0].Ship != ShipForward {
				t.Errorf("pre-partitioned input should forward, got %s\n%s",
					n.Inputs[0].Ship, phys.Explain())
			}
		}
	}
}

func TestSinkPartitionRequirement(t *testing.T) {
	p, sink := simplePlan()
	phys, err := Optimize(p, Options{
		Parallelism:   4,
		SinkPartition: map[int]record.KeyFunc{sink.ID: record.KeyA},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The data must arrive at the sink partitioned on KeyA: either the
	// sink edge partitions, or an upstream enforcer already did and the
	// sink edge forwards.
	n := phys.Sinks[0]
	partitioned := false
	for len(n.Inputs) == 1 {
		e := n.Inputs[0]
		if e.Ship == ShipPartition && record.KeyID(e.Key) == record.KeyID(record.KeyA) {
			partitioned = true
			break
		}
		if e.Ship != ShipForward {
			break
		}
		n = e.From
	}
	if !partitioned {
		t.Errorf("no partitioning on the path to the sink:\n%s", phys.Explain())
	}
}

// pageRankSubplan builds the iterative step function of Figure 3: rank
// vector p joined with transition matrix A on pid, then summed by tid.
// Rank records: (A=pid, X=rank). Matrix records: (A=tid, B=pid, X=prob).
func pageRankSubplan(vecEst, matEst int64) (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
	p := dataflow.NewPlan()
	vec := p.IterationPlaceholder("p", vecEst)
	mat := withEst(p.SourceOf("A", nil), matEst)
	j := p.MatchNode("joinPA", vec, mat, record.KeyA, record.KeyB,
		func(l, r record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: r.A, X: l.X * r.X})
		})
	// The UDF copies the matrix record's tid (field A) unchanged.
	j.Preserve(1, record.KeyA)
	red := withEst(p.ReduceNode("sumRanks", j, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {
			var s float64
			for _, r := range g {
				s += r.X
			}
			out.Emit(record.Record{A: k, X: s})
		}), vecEst)
	red.Combinable = true
	sink := p.SinkNode("O", red)
	return p, vec, sink
}

func TestFigure4PlanChoice(t *testing.T) {
	// Small rank vector, huge matrix -> the optimizer should choose the
	// "Mahout-style" broadcast plan of Figure 4 (left): replicate p, keep
	// A in place on the cached constant path.
	plan, vec, sink := pageRankSubplan(1_000, 20_000_000)
	phys, err := Optimize(plan, Options{
		Parallelism:        4,
		ExpectedIterations: 20,
		Feedback:           map[int]int{vec.ID: sink.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(phys)
	if j == nil {
		t.Fatal("no join")
	}
	vecSide := -1
	for i, e := range j.Inputs {
		if e.From.Logical.Contract == dataflow.IterationInput ||
			viaEnforcers(e.From).Logical.Contract == dataflow.IterationInput {
			vecSide = i
		}
	}
	if vecSide == -1 {
		t.Fatalf("cannot locate rank vector input\n%s", phys.Explain())
	}
	if j.Inputs[vecSide].Ship != ShipBroadcast {
		t.Errorf("small rank vector should broadcast (Fig. 4 left), got %s\n%s",
			j.Inputs[vecSide].Ship, phys.Explain())
	}

	// Large rank vector (same order as matrix) -> partition plan (Fig. 4
	// right): no broadcast anywhere on the dynamic path.
	plan2, vec2, sink2 := pageRankSubplan(20_000_000, 20_000_000)
	phys2, err := Optimize(plan2, Options{
		Parallelism:        4,
		ExpectedIterations: 20,
		Feedback:           map[int]int{vec2.ID: sink2.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	j2 := findJoin(phys2)
	for i, e := range j2.Inputs {
		if e.Ship == ShipBroadcast {
			t.Errorf("input %d should not broadcast a huge vector (Fig. 4 right)\n%s",
				i, phys2.Explain())
		}
	}
}

// viaEnforcers follows enforcer chains to the underlying operator.
func viaEnforcers(n *PhysNode) *PhysNode {
	for n.Role == RoleEnforcer && len(n.Inputs) == 1 {
		n = n.Inputs[0].From
	}
	return n
}

func TestConstantPathCached(t *testing.T) {
	plan, vec, sink := pageRankSubplan(1_000, 1_000_000)
	phys, err := Optimize(plan, Options{
		Parallelism:        4,
		ExpectedIterations: 20,
		Feedback:           map[int]int{vec.ID: sink.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, n := range phys.Nodes {
		for _, e := range n.Inputs {
			if e.Cache {
				cached++
				if e.From.OnDynamicPath {
					t.Errorf("cached edge from dynamic producer %s", e.From.Name())
				}
				if !n.OnDynamicPath {
					t.Errorf("cached edge into constant consumer %s", n.Name())
				}
			}
		}
	}
	if cached == 0 {
		t.Errorf("constant matrix path should be cached:\n%s", phys.Explain())
	}
}

func TestNoCachingWithoutIterations(t *testing.T) {
	plan, _, _ := pageRankSubplan(1_000, 1_000_000)
	phys, err := Optimize(plan, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		for _, e := range n.Inputs {
			if e.Cache {
				t.Errorf("non-iterative plan must not cache (%s)", n.Name())
			}
		}
	}
}

func TestDynamicPathMarked(t *testing.T) {
	plan, vec, sink := pageRankSubplan(1_000, 1_000_000)
	phys, err := Optimize(plan, Options{
		Parallelism:        2,
		ExpectedIterations: 10,
		Feedback:           map[int]int{vec.ID: sink.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		isMatrixSource := n.Logical.Name == "A" && n.Role == RoleOperator
		if isMatrixSource && n.OnDynamicPath {
			t.Error("matrix source must be on the constant path")
		}
		if n.Logical.Contract == dataflow.IterationInput && !n.OnDynamicPath {
			t.Error("placeholder must be on the dynamic path")
		}
	}
}

func TestIterationWeightingPrefersConstantPathWork(t *testing.T) {
	// With many iterations, a plan that repartitions the matrix once
	// (constant path) must beat one that ships the join output every
	// iteration; assert the reduce input is NOT re-partitioned per
	// iteration in the chosen plan.
	plan, vec, sink := pageRankSubplan(1_000, 5_000_000)
	phys, err := Optimize(plan, Options{
		Parallelism:        4,
		ExpectedIterations: 50,
		Feedback:           map[int]int{vec.ID: sink.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.ReduceOp && n.Role == RoleOperator {
			if n.Inputs[0].Ship == ShipPartition && n.Inputs[0].From.EstOut > 100_000 {
				// Shipping the full 5M-row join output every iteration is
				// the bad plan; a combiner (or pre-established
				// partitioning) must shrink or remove the shuffle.
				t.Errorf("reduce re-shuffles %d-row join output every iteration:\n%s",
					n.Inputs[0].From.EstOut, phys.Explain())
			}
		}
	}
}

func TestSortAggExploitsPresortedInput(t *testing.T) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 100_000)
	red := p.ReduceNode("agg", w, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {})
	p.SinkNode("out", red)
	phys, err := Optimize(p, Options{
		Parallelism: 4,
		PlaceholderProps: map[int]Props{w.ID: {
			Part: record.KeyID(record.KeyA),
			Sort: record.KeyID(record.KeyA),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.ReduceOp {
			if n.Local != LocalSortAgg {
				t.Errorf("pre-sorted input should use sort-agg, got %s", n.Local)
			}
			if n.Inputs[0].Ship != ShipForward {
				t.Errorf("pre-partitioned input should forward, got %s", n.Inputs[0].Ship)
			}
		}
	}
}

func TestSolutionJoinRequiresCoPartitioning(t *testing.T) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 100)
	sj := p.SolutionJoinNode("upd", w, record.KeyA,
		func(w, s record.Record, found bool, out dataflow.Emitter) {})
	p.SinkNode("D", sj)
	phys, err := Optimize(p, Options{Parallelism: 4, ExpectedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.SolutionJoin {
			if n.Local != LocalSolutionIndex {
				t.Errorf("solution join local = %s", n.Local)
			}
			// The workset must arrive partitioned on the solution key,
			// either at the join edge or at an upstream enforcer.
			partitioned := false
			cur := n
			for len(cur.Inputs) >= 1 {
				e := cur.Inputs[0]
				if e.Ship == ShipPartition && record.KeyID(e.Key) == record.KeyID(record.KeyA) {
					partitioned = true
					break
				}
				if e.Ship != ShipForward {
					break
				}
				cur = e.From
			}
			if !partitioned {
				t.Errorf("unpartitioned workset reaches the solution index:\n%s", phys.Explain())
			}
		}
	}
	// With the workset already partitioned by the key, it must forward.
	phys2, err := Optimize(p, Options{
		Parallelism:      4,
		PlaceholderProps: map[int]Props{w.ID: {Part: record.KeyID(record.KeyA)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys2.Nodes {
		if n.Logical.Contract == dataflow.SolutionJoin && n.Inputs[0].Ship != ShipForward {
			t.Errorf("co-partitioned workset should forward, got %s", n.Inputs[0].Ship)
		}
	}
}

func TestPropsCovers(t *testing.T) {
	a := Props{Part: 1, Sort: 2}
	if !a.covers(Props{Part: 1}) || !a.covers(Props{}) || !a.covers(a) {
		t.Error("covers too strict")
	}
	if a.covers(Props{Part: 3}) || a.covers(Props{Repl: true}) {
		t.Error("covers too lax")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []ShipStrategy{ShipForward, ShipPartition, ShipBroadcast} {
		if s.String() == "" || strings.HasPrefix(s.String(), "ship(") {
			t.Errorf("no name for ship %d", s)
		}
	}
	for l := LocalNone; l <= LocalSolutionIndex; l++ {
		if l.String() == "" || strings.HasPrefix(l.String(), "local(") {
			t.Errorf("no name for local %d", l)
		}
	}
}

// TestShipCostByHosts: a crossing costs the network weight for the share
// of records that leave the process and the in-memory rate for the rest;
// Hosts 0 (the zero value every single-process caller passes) prices like
// one host.
func TestShipCostByHosts(t *testing.T) {
	const n, p = 1000, 4
	for _, c := range []struct {
		hosts int
		want  float64 // per partitioned record
	}{{0, wNetLocal}, {1, wNetLocal}, {2, (1 + wNetLocal) / 2}, {4, (3 + wNetLocal) / 4}} {
		if got := shipCost(ShipPartition, n, p, c.hosts); got != wNet*c.want*n {
			t.Errorf("hosts %d: partition cost %g, want %g", c.hosts, got, wNet*c.want*n)
		}
		if got := shipCost(ShipBroadcast, n, p, c.hosts); got != wNet*c.want*n*p {
			t.Errorf("hosts %d: broadcast cost %g, want %g", c.hosts, got, wNet*c.want*n*p)
		}
		if got := shipCost(ShipForward, n, p, c.hosts); got != 0 {
			t.Errorf("hosts %d: forward cost %g, want 0", c.hosts, got)
		}
	}
}

func TestEstimates(t *testing.T) {
	p := dataflow.NewPlan()
	a := withEst(p.SourceOf("a", nil), 100)
	b := withEst(p.SourceOf("b", nil), 10)
	x := p.CrossNode("x", a, b, func(l, r record.Record, out dataflow.Emitter) {})
	p.SinkNode("o", x)
	phys, err := Optimize(p, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.CrossOp && n.EstOut != 1000 {
			t.Errorf("cross estimate = %d, want 1000", n.EstOut)
		}
	}
}

func TestPhysPlanDOT(t *testing.T) {
	plan, vec, sink := pageRankSubplan(1_000, 1_000_000)
	phys, err := Optimize(plan, Options{
		Parallelism:        2,
		ExpectedIterations: 10,
		Feedback:           map[int]int{vec.ID: sink.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	dot := phys.DOT()
	for _, want := range []string{"digraph physplan", "style=dashed", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("physical DOT missing %q:\n%s", want, dot)
		}
	}
}
