package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// checkDenseIdentities asserts the invariants the runtime relies on:
// node IDs equal their topological position and edge IDs are dense.
func checkDenseIdentities(t *testing.T, phys *PhysPlan) {
	t.Helper()
	edges := 0
	pos := map[*PhysNode]int{}
	for i, n := range phys.Nodes {
		if n.ID != i {
			t.Fatalf("node %s has ID %d at position %d", n.Name(), n.ID, i)
		}
		pos[n] = i
		edges += len(n.Inputs)
	}
	if phys.NumEdges != edges {
		t.Fatalf("NumEdges %d, plan has %d", phys.NumEdges, edges)
	}
	seen := make([]bool, edges)
	for _, n := range phys.Nodes {
		for _, e := range n.Inputs {
			if e.ID < 0 || e.ID >= edges || seen[e.ID] {
				t.Fatalf("edge into %s has bad or duplicate ID %d", n.Name(), e.ID)
			}
			seen[e.ID] = true
			if pos[e.From] >= pos[n] {
				t.Fatalf("node %s before its input %s", n.Name(), e.From.Name())
			}
		}
	}
}

// reducePlan is a shuffle-requiring plan with a join whose sides differ
// in estimated size — enough structure for the greedy rules to act on.
func reducePlan() (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	big := withEst(p.SourceOf("big", nil), 10_000)
	small := withEst(p.SourceOf("small", nil), 100)
	j := p.MatchNode("join", big, small, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(l) })
	red := p.ReduceNode("agg", j, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) })
	sink := p.SinkNode("out", red)
	return p, sink
}

func TestGreedyPlannerProducesValidPlan(t *testing.T) {
	p, _ := reducePlan()
	phys, err := Optimize(p, Options{Parallelism: 4, Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	checkDenseIdentities(t, phys)
	if len(phys.Sinks) != 1 {
		t.Fatalf("want 1 sink, got %d", len(phys.Sinks))
	}
}

func TestGreedyHashJoinBuildsSmallerSide(t *testing.T) {
	p, _ := reducePlan()
	phys, err := Optimize(p, Options{Parallelism: 4, Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(phys)
	if j == nil {
		t.Fatal("no join in plan")
	}
	if j.Local != LocalHashJoin {
		t.Fatalf("greedy join strategy = %v, want hash join", j.Local)
	}
	if j.BuildSide != 1 {
		t.Fatalf("build side = %d, want 1 (the smaller input)", j.BuildSide)
	}
}

func TestGreedyReusesExistingPartitioning(t *testing.T) {
	// reduce(A) over a placeholder already partitioned on A: the greedy
	// reduce must take the forward edge, not re-shuffle.
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 1000)
	red := p.ReduceNode("agg", w, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {})
	p.SinkNode("out", red)
	phys, err := Optimize(p, Options{
		Parallelism:      4,
		Planner:          PlannerGreedy,
		PlaceholderProps: map[int]Props{w.ID: {Part: record.KeyID(record.KeyA)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical != nil && n.Logical.Contract == dataflow.ReduceOp && n.Role == RoleOperator {
			if n.Inputs[0].Ship != ShipForward {
				t.Fatalf("reduce over co-partitioned input ships %v, want forward", n.Inputs[0].Ship)
			}
			return
		}
	}
	t.Fatal("no reduce in plan")
}

func TestPlannerKindStrings(t *testing.T) {
	for k, want := range map[PlannerKind]string{
		PlannerAuto: "auto", PlannerCost: "cost", PlannerGreedy: "greedy", PlannerKind(99): "planner(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("PlannerKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// mapChainPlan is source → map → filter-shaped map → map → sink: three
// fusible Map operators on forward edges.
func mapChainPlan() (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	src := withEst(p.SourceOf("src", nil), 1000)
	m1 := p.MapNode("inc", src, func(r record.Record, out dataflow.Emitter) {
		r.X++
		out.Emit(r)
	})
	f := p.FilterNode("odd", m1, func(r record.Record) bool { return r.A%2 == 1 })
	m2 := p.MapNode("scale", f, func(r record.Record, out dataflow.Emitter) {
		r.X *= 2
		out.Emit(r)
	})
	sink := p.SinkNode("out", m2)
	return p, sink
}

func TestFuseCollapsesMapChain(t *testing.T) {
	p, _ := mapChainPlan()
	phys, err := Optimize(p, Options{Parallelism: 2, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if phys.Fused != 2 {
		t.Fatalf("Fused = %d, want 2 (filter and second map fold into the first):\n%s",
			phys.Fused, phys.Explain())
	}
	checkDenseIdentities(t, phys)
	var head *PhysNode
	for _, n := range phys.Nodes {
		if len(n.FusedChain) > 0 {
			head = n
		}
	}
	if head == nil {
		t.Fatal("no fused head in plan")
	}
	if len(head.FusedChain) != 2 {
		t.Fatalf("fused chain has %d members, want 2", len(head.FusedChain))
	}
	if !strings.Contains(head.Name(), "+") {
		t.Fatalf("fused head name %q does not show the chain", head.Name())
	}
}

func TestFuseSkipsShuffledAndSharedEdges(t *testing.T) {
	// map → reduce → map: the map-to-reduce edge re-partitions and the
	// reduce is not a Map, so nothing can fuse.
	p := dataflow.NewPlan()
	src := withEst(p.SourceOf("src", nil), 1000)
	m := p.MapNode("m", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	red := p.ReduceNode("agg", m, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) })
	m2 := p.MapNode("m2", red, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	p.SinkNode("out", m2)
	phys, err := Optimize(p, Options{Parallelism: 2, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if phys.Fused != 0 {
		t.Fatalf("Fused = %d, want 0:\n%s", phys.Fused, phys.Explain())
	}

	// Diamond: one map feeding two consumers must not fuse into either.
	p2 := dataflow.NewPlan()
	src2 := withEst(p2.SourceOf("src", nil), 1000)
	shared := p2.MapNode("shared", src2, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	a := p2.MapNode("a", shared, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	b := p2.MapNode("b", shared, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	u := p2.UnionNode("u", a, b)
	p2.SinkNode("out", u)
	phys2, err := Optimize(p2, Options{Parallelism: 2, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys2.Nodes {
		for _, f := range n.FusedChain {
			if f.Name == "a" || f.Name == "b" {
				t.Fatalf("consumer of shared producer fused: %s absorbed %s", n.Name(), f.Name)
			}
		}
		if n.Logical != nil && n.Logical.Name == "shared" && len(n.FusedChain) > 0 {
			t.Fatalf("shared producer absorbed a consumer: %s", n.Name())
		}
	}
}

// unionShape names the variants unionPlan builds.
type unionShape int

const (
	unionPlain  unionShape = iota // s → m; u = m ∪ t ∪ w → out
	unionShared                   // as plain, and m also feeds a second sink
	unionChain                    // s → m → m2, which fuses onto m; u = m2 ∪ t ∪ w
	unionCached                   // constant s → m; u = m ∪ placeholder p ∪ w, iterated
)

// unionPlan builds one unionShape and returns it with the options to plan
// it under.
func unionPlan(shape unionShape) (*dataflow.Plan, Options) {
	p := dataflow.NewPlan()
	pass := func(r record.Record, out dataflow.Emitter) { out.Emit(r) }
	in := p.MapNode("m", withEst(p.SourceOf("s", nil), 1000), pass)
	if shape == unionChain {
		in = p.MapNode("m2", in, pass)
	}
	second := withEst(p.SourceOf("t", nil), 500)
	opt := Options{Parallelism: 2, Fuse: true}
	if shape == unionCached {
		second = p.IterationPlaceholder("p", 500)
		opt.ExpectedIterations = 10
	}
	u := p.UnionNode("u", in, second, withEst(p.SourceOf("w", nil), 50))
	out := p.SinkNode("out", u)
	if shape == unionShared {
		p.SinkNode("also", in)
	}
	if shape == unionCached {
		opt.Feedback = map[int]int{second.ID: out.ID}
	}
	return p, opt
}

// TestFuseAbsorbsUnion: the rewrite absorbs a union into the producer of
// its input 0 — the union's other inputs appended, in order, from
// len(Logical.Inputs) on — and keeps it a task of its own when that
// producer feeds another consumer, when the edge is a loop-invariant
// cache, when the producer already heads a fused chain, and when fusion
// is off (iterative.Config.DisableFusion plans with Fuse unset). Both
// planners.
func TestFuseAbsorbsUnion(t *testing.T) {
	for _, planner := range []PlannerKind{PlannerCost, PlannerGreedy} {
		p, opt := unionPlan(unionPlain)
		opt.Planner = planner
		phys, err := Optimize(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkDenseIdentities(t, phys)
		var head *PhysNode
		for _, n := range phys.Nodes {
			if n.Logical.Contract == dataflow.UnionOp {
				t.Fatalf("%v: union left as a task:\n%s", planner, phys.Explain())
			}
			if n.Union != nil {
				head = n
			}
		}
		if head == nil || head.Name() != "m+u" || phys.Fused != 1 {
			t.Fatalf("%v: want the union absorbed into m (Fused 1), got Fused %d:\n%s", planner, phys.Fused, phys.Explain())
		}
		var from []string
		for _, e := range head.Inputs {
			from = append(from, e.From.Name())
		}
		if tail := len(head.Logical.Inputs); tail != 1 || strings.Join(from, ",") != "s,t,w" {
			t.Fatalf("%v: m+u reads %v with its tail from %d, want [s t w] from 1", planner, from, tail)
		}
		opt.Fuse = false
		plain, err := Optimize(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if phys.Cost >= plain.Cost {
			t.Errorf("%v: fused plan costs %g, unfused %g: the removed hop was not credited", planner, phys.Cost, plain.Cost)
		}

		for _, c := range []struct {
			name  string
			shape unionShape
			fuse  bool
		}{
			{"shared producer", unionShared, true},
			{"cached input 0", unionCached, true},
			{"producer with a fused chain", unionChain, true},
			{"fusion off", unionPlain, false},
		} {
			p, opt := unionPlan(c.shape)
			opt.Planner, opt.Fuse = planner, c.fuse
			phys, err := Optimize(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			kept := false
			for _, n := range phys.Nodes {
				if n.Union != nil {
					t.Fatalf("%v, %s: %s absorbed the union:\n%s", planner, c.name, n.Name(), phys.Explain())
				}
				kept = kept || n.Logical.Contract == dataflow.UnionOp
			}
			if !kept {
				t.Fatalf("%v, %s: the union is gone:\n%s", planner, c.name, phys.Explain())
			}
			if c.shape == unionCached && !phys.Nodes[slices.IndexFunc(phys.Nodes, func(n *PhysNode) bool {
				return n.Logical.Contract == dataflow.UnionOp
			})].Inputs[0].Cache {
				t.Fatalf("%v, %s: the union's input 0 is not cached:\n%s", planner, c.name, phys.Explain())
			}
		}
	}
}

// combinerChainPlan is source → map → map → combinable reduce → sink, with
// few enough groups that both planners put a combiner before the shuffle.
func combinerChainPlan() (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	src := withEst(p.SourceOf("src", nil), 100_000)
	m1 := p.MapNode("m1", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m2 := p.MapNode("m2", m1, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	red := withEst(p.ReduceNode("agg", m2, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) }), 100)
	red.Combinable = true
	p.SinkNode("out", red)
	return p, red
}

func TestFuseAbsorbsCombiner(t *testing.T) {
	for _, planner := range []PlannerKind{PlannerCost, PlannerGreedy} {
		p, red := combinerChainPlan()
		plain, err := Optimize(p, Options{Parallelism: 4, Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		phys, err := Optimize(p, Options{Parallelism: 4, Planner: planner, Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if phys.Fused != 2 {
			t.Fatalf("%s: Fused = %d, want 2 (m2 and the combiner fold into m1):\n%s", planner, phys.Fused, phys.Explain())
		}
		checkDenseIdentities(t, phys)
		var head *PhysNode
		for _, n := range phys.Nodes {
			if n.Role == RoleCombiner {
				t.Fatalf("%s: combiner task left in the fused plan:\n%s", planner, phys.Explain())
			}
			if n.Combiner != nil {
				head = n
			}
		}
		if head == nil || head.Combiner != red || len(head.FusedChain) != 1 {
			t.Fatalf("%s: no head with m2 fused and agg's combiner absorbed:\n%s", planner, phys.Explain())
		}
		if got := head.Name(); got != "m1+m2+agg-combine" {
			t.Errorf("%s: fused head named %q", planner, got)
		}
		if !strings.Contains(phys.Explain(), "m1+m2+agg-combine") || !strings.Contains(phys.DOT(), "m1+m2+agg-combine") {
			t.Errorf("%s: Explain/DOT do not show the absorbed combiner:\n%s", planner, phys.Explain())
		}
		if len(phys.Nodes) != len(plain.Nodes)-2 || phys.Cost >= plain.Cost {
			t.Errorf("%s: fused plan has %d nodes at cost %.0f, unfused %d at %.0f", planner,
				len(phys.Nodes), phys.Cost, len(plain.Nodes), plain.Cost)
		}
	}
}

func TestFuseKeepsSharedProducersCombiner(t *testing.T) {
	// The combiner's producer also feeds the sink directly: absorbing the
	// combiner would fold the sink's records too, so it stays a task.
	p := dataflow.NewPlan()
	src := withEst(p.SourceOf("src", nil), 100_000)
	m := p.MapNode("m", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	red := withEst(p.ReduceNode("agg", m, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) }), 100)
	red.Combinable = true
	p.SinkNode("out", red)
	p.SinkNode("raw", m)
	phys, err := Optimize(p, Options{Parallelism: 4, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	combiners := 0
	for _, n := range phys.Nodes {
		if n.Combiner != nil {
			t.Fatalf("combiner absorbed into a shared producer:\n%s", phys.Explain())
		}
		if n.Role == RoleCombiner {
			combiners++
		}
	}
	if combiners != 1 {
		t.Fatalf("want the combiner as a task of its own:\n%s", phys.Explain())
	}
}

func TestExplainShowsBuildSide(t *testing.T) {
	p := dataflow.NewPlan()
	big := withEst(p.SourceOf("big", nil), 1_000_000)
	small := withEst(p.SourceOf("small", nil), 10)
	j := p.MatchNode("join", big, small, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(l) })
	p.SinkNode("out", j)
	phys, err := Optimize(p, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	join := findJoin(phys)
	want := fmt.Sprintf("hash-join build=%d", join.BuildSide)
	if join.Local != LocalHashJoin || !strings.Contains(phys.Explain(), want) || !strings.Contains(phys.DOT(), want) {
		t.Fatalf("Explain/DOT lack %q:\n%s", want, phys.Explain())
	}
}

func TestGreedyWithFusionMatchesShape(t *testing.T) {
	p, _ := mapChainPlan()
	phys, err := Optimize(p, Options{Parallelism: 2, Planner: PlannerGreedy, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if phys.Fused != 2 {
		t.Fatalf("greedy+fuse Fused = %d, want 2", phys.Fused)
	}
	checkDenseIdentities(t, phys)
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	p, _ := reducePlan()
	c := NewPlanCache()
	opt := Options{Parallelism: 4, Planner: PlannerGreedy}
	pl1, hit, err := c.Optimize(p, opt, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported a hit")
	}
	// Same order of magnitude: hit, and the identical plan object.
	pl2, hit, err := c.Optimize(p, opt, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || pl2 != pl1 {
		t.Fatalf("same-bucket lookup: hit=%v same=%v", hit, pl2 == pl1)
	}
	// A collapsed estimate is a different bucket: miss.
	if _, hit, err = c.Optimize(p, opt, 10); err != nil || hit {
		t.Fatalf("cross-bucket lookup: hit=%v err=%v", hit, err)
	}
	// A different planner fingerprint is a different entry.
	opt.Planner = PlannerCost
	if _, hit, err = c.Optimize(p, opt, 900); err != nil || hit {
		t.Fatalf("cross-planner lookup: hit=%v err=%v", hit, err)
	}
	if c.Hits != 1 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", c.Hits, c.Misses)
	}
}
