package runtime

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Tests exercising the executor paths that the higher layers normally
// drive: cached inputs in every representation, forced local strategies,
// the stateful solution operators, and placeholder plumbing.

func optimizeOrDie(t *testing.T, p *dataflow.Plan, opt optimizer.Options) *optimizer.PhysPlan {
	t.Helper()
	phys, err := optimizer.Optimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

func TestSortAggForced(t *testing.T) {
	p := dataflow.NewPlan()
	src := p.SourceOf("s", []record.Record{{A: 2, X: 1}, {A: 1, X: 2}, {A: 2, X: 3}})
	red := p.ReduceNode("sum", src, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {
			var s float64
			for _, r := range g {
				s += r.X
			}
			out.Emit(record.Record{A: k, X: s})
		})
	sink := p.SinkNode("o", red)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2})
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.ReduceOp {
			n.Local = optimizer.LocalSortAgg
			n.SortKey = record.KeyA
		}
	}
	e := NewExecutor(Config{})
	res, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	got := sorted(res.Records(sink.ID))
	if len(got) != 2 || got[0].X != 2 || got[1].X != 4 {
		t.Fatalf("sort-agg wrong: %v", got)
	}
}

// cachedJoinPlan joins a dynamic placeholder with a constant source so
// the constant side is cached across runs.
func cachedJoinPlan(constRecs []record.Record) (*dataflow.Plan, *dataflow.Node, *dataflow.Node, *dataflow.Node) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 4)
	c := p.SourceOf("const", constRecs)
	j := p.MatchNode("j", w, c, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: l.A, B: r.B})
		})
	sink := p.SinkNode("o", j)
	return p, w, j.Inputs[1], sink
}

func TestCachedHashTableReused(t *testing.T) {
	constRecs := []record.Record{{A: 1, B: 10}, {A: 2, B: 20}}
	p, w, _, sink := cachedJoinPlan(constRecs)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2, ExpectedIterations: 5})
	e := NewExecutor(Config{})
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}, {A: 2}}, record.KeyA, 2)
	for pass := 0; pass < 3; pass++ {
		res, err := e.Run(phys)
		if err != nil {
			t.Fatal(err)
		}
		got := sorted(res.Records(sink.ID))
		if len(got) != 2 || got[0].B != 10 || got[1].B != 20 {
			t.Fatalf("pass %d: %v", pass, got)
		}
	}
}

func TestCachedSortMergeJoin(t *testing.T) {
	constRecs := []record.Record{{A: 2, B: 20}, {A: 1, B: 10}}
	p, w, _, sink := cachedJoinPlan(constRecs)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2, ExpectedIterations: 5})
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.MatchOp {
			n.Local = optimizer.LocalSortMergeJoin
			n.SortKey = record.KeyA
		}
	}
	e := NewExecutor(Config{})
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}, {A: 2}}, record.KeyA, 2)
	for pass := 0; pass < 2; pass++ {
		res, err := e.Run(phys)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Records(sink.ID); len(got) != 2 {
			t.Fatalf("pass %d: %v", pass, got)
		}
	}
}

func TestSolutionOperatorsThroughExecutor(t *testing.T) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 4)
	sj := p.SolutionJoinNode("sj", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if found {
				out.Emit(record.Record{A: c.A, B: s.B + c.B})
			}
		})
	sj.Preserve(0, record.KeyA)
	scg := p.SolutionCoGroupNode("scg", sj, record.KeyA,
		func(k int64, ws []record.Record, s record.Record, found bool, out dataflow.Emitter) {
			out.Emit(record.Record{A: k, B: int64(len(ws))})
		})
	sink := p.SinkNode("o", scg)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2})

	e := NewExecutor(Config{})
	e.Solution = NewSolutionSet(2, record.KeyA, nil, nil)
	e.Solution.Init([]record.Record{{A: 1, B: 100}, {A: 2, B: 200}})
	e.SetPlaceholder(w.ID, []record.Record{{A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}, record.KeyA, 2)
	res, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	got := sorted(res.Records(sink.ID))
	// Key 3 is not in the solution: dropped by the join; keys 1 and 2
	// produce one grouped record each.
	if len(got) != 2 || got[0].B != 1 || got[1].B != 1 {
		t.Fatalf("solution pipeline: %v", got)
	}
}

func TestSolutionOperatorsRequireSolutionSet(t *testing.T) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 1)
	sj := p.SolutionJoinNode("sj", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {})
	p.SinkNode("o", sj)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 1})
	e := NewExecutor(Config{})
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}}, record.KeyA, 1)
	if _, err := e.Run(phys); err == nil {
		t.Fatal("solution join without a solution set must fail")
	}
}

func TestDirectMergePrunesStaleDeltas(t *testing.T) {
	// With DirectMerge, the second identical candidate in one superstep
	// must be swallowed.
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 2)
	sj := p.SolutionJoinNode("sj", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if found && c.B < s.B {
				out.Emit(record.Record{A: c.A, B: c.B})
			}
		})
	sj.Preserve(0, record.KeyA)
	sink := p.SinkNode("D", sj)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 1})

	cmp := func(a, b record.Record) int {
		switch {
		case a.B < b.B:
			return 1
		case a.B > b.B:
			return -1
		}
		return 0
	}
	e := NewExecutor(Config{})
	e.Solution = NewSolutionSet(1, record.KeyA, cmp, nil)
	e.Solution.Init([]record.Record{{A: 7, B: 100}})
	e.DirectMerge = true
	e.SetPlaceholder(w.ID, []record.Record{{A: 7, B: 5}, {A: 7, B: 5}}, record.KeyA, 1)
	res, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Records(sink.ID); len(got) != 1 {
		t.Fatalf("direct merge emitted %d deltas, want 1: %v", len(got), got)
	}
	if r, _ := e.Solution.Lookup(0, 7); r.B != 5 {
		t.Fatalf("solution not updated: %v", r)
	}
}

func TestEnforcerSortNode(t *testing.T) {
	// A plan whose reduce demands sorted+partitioned input through IPs
	// exercises the enforcer's LocalSort path when the upstream candidate
	// is forced through it.
	p := dataflow.NewPlan()
	src := p.SourceOf("s", []record.Record{{A: 3}, {A: 1}, {A: 2}})
	m := p.MapNode("id", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m.Preserve(0, record.KeyA)
	red := p.ReduceNode("g", m, record.KeyA,
		func(k int64, g []record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: k})
		})
	sink := p.SinkNode("o", red)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2})
	e := NewExecutor(Config{})
	res, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Records(sink.ID); len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSetPlaceholderPartsAndMetricsAccessor(t *testing.T) {
	// Pre-partitioned placeholder data reaches the sink unchanged. The
	// executor's Metrics accessor is gone; the name is kept so the test's
	// history stays traceable.
	e := NewExecutor(Config{})
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 2)
	sink := p.SinkNode("o", w)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2})
	e.SetPlaceholderParts(w.ID, [][]record.Record{{{A: 1}}, {{A: 2}}})
	res, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records(sink.ID)) != 2 {
		t.Fatal("placeholder parts lost")
	}
}

func TestSpilledSortedCacheReplaysInOrder(t *testing.T) {
	// A cached sort-merge join input must come back sorted on every pass.
	// Stream caches stay in memory (they no longer spill); the name is
	// kept so the test's history stays traceable.
	constRecs := make([]record.Record, 500)
	for i := range constRecs {
		constRecs[i] = record.Record{A: int64(499 - i), B: int64(i)}
	}
	p, w, _, sink := cachedJoinPlan(constRecs)
	phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 1, ExpectedIterations: 5})
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.MatchOp {
			n.Local = optimizer.LocalSortMergeJoin
			n.SortKey = record.KeyA
		}
	}
	e := NewExecutor(Config{})
	defer e.Close()
	probe := make([]record.Record, 500)
	for i := range probe {
		probe[i] = record.Record{A: int64(i)}
	}
	e.SetPlaceholder(w.ID, probe, record.KeyA, 1)
	for pass := 0; pass < 2; pass++ {
		res, err := e.Run(phys)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Records(sink.ID); len(got) != 500 {
			t.Fatalf("pass %d: %d joined rows", pass, len(got))
		}
	}
}

func TestSolutionSetAccessors(t *testing.T) {
	s := NewSolutionSet(3, record.KeyA, nil, nil)
	if s.Parallelism() != 3 {
		t.Error("parallelism accessor")
	}
	if !s.Update(record.Record{A: 1, B: 1}) {
		t.Error("insert should report change")
	}
	if s.Update(record.Record{A: 1, B: 1}) {
		t.Error("identical update should report no change")
	}
	s0 := NewSolutionSet(0, record.KeyA, nil, nil)
	if s0.Parallelism() != 1 {
		t.Error("degenerate parallelism should clamp to 1")
	}
}

// A push racing close (straggler producer at session teardown, or a remote
// batch landing after a failed run) must recycle the batch back into the
// pool and count the drop — appending to a closed queue would leak the
// batch, since closed queues are never drained again.
func TestQueuePushAfterCloseRecycles(t *testing.T) {
	var m metrics.Counters
	pool := newBatchPool(4, &m)
	q := newQueue(pool)
	q.close()

	b := pool.get()
	b = append(b, record.Record{A: 1})
	q.push(b)

	if n := len(q.items); n != 0 {
		t.Fatalf("closed queue buffered %d batches", n)
	}
	if got := m.DroppedBatches.Load(); got != 1 {
		t.Errorf("DroppedBatches = %d, want 1", got)
	}
	if got := m.BatchesRecycled.Load(); got != 1 {
		t.Errorf("BatchesRecycled = %d, want 1 (batch leaked out of the pool)", got)
	}
	// (Whether the pool hands that same batch back is sync.Pool's business:
	// under -race it drops puts at random, so the counters are the contract.)
	// Reset must reopen the queue for the next superstep.
	q.reset(pool)
	q.push(pool.get())
	if n := len(q.items); n != 1 {
		t.Fatalf("reset queue buffered %d batches, want 1", n)
	}
}
