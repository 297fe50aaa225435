package runtime

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

func run(t *testing.T, p *dataflow.Plan, par int) (Result, *metrics.Counters) {
	t.Helper()
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	var m metrics.Counters
	e := NewExecutor(Config{Metrics: &m})
	res, err := e.Run(phys)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, &m
}

func sorted(rs []record.Record) []record.Record {
	out := append([]record.Record(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

func recs(as ...int64) []record.Record {
	out := make([]record.Record, len(as))
	for i, a := range as {
		out[i] = record.Record{A: a}
	}
	return out
}

func TestSourceMapSink(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		p := dataflow.NewPlan()
		src := p.SourceOf("src", recs(1, 2, 3, 4, 5))
		m := p.MapNode("double", src, func(r record.Record, out dataflow.Emitter) {
			r.A *= 2
			out.Emit(r)
		})
		sink := p.SinkNode("out", m)
		res, _ := run(t, p, par)
		got := sorted(res.Records(sink.ID))
		want := recs(2, 4, 6, 8, 10)
		if len(got) != len(want) {
			t.Fatalf("par=%d: got %d records", par, len(got))
		}
		for i := range want {
			if got[i].A != want[i].A {
				t.Errorf("par=%d: got[%d]=%v", par, i, got[i])
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, par := range []int{1, 3} {
		p := dataflow.NewPlan()
		data := []record.Record{
			{A: 1, X: 1}, {A: 1, X: 2}, {A: 2, X: 5}, {A: 2, X: 7}, {A: 3, X: 10},
		}
		src := p.SourceOf("src", data)
		red := p.ReduceNode("sum", src, record.KeyA, func(k int64, g []record.Record, out dataflow.Emitter) {
			var s float64
			for _, r := range g {
				s += r.X
			}
			out.Emit(record.Record{A: k, X: s})
		})
		sink := p.SinkNode("out", red)
		res, _ := run(t, p, par)
		got := sorted(res.Records(sink.ID))
		want := []record.Record{{A: 1, X: 3}, {A: 2, X: 12}, {A: 3, X: 10}}
		if len(got) != 3 {
			t.Fatalf("par=%d: got %d groups: %v", par, len(got), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("par=%d: group %d = %v, want %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestReduceWithCombiner(t *testing.T) {
	p := dataflow.NewPlan()
	var data []record.Record
	for i := 0; i < 100; i++ {
		data = append(data, record.Record{A: int64(i % 4), X: 1})
	}
	src := p.SourceOf("src", data)
	red := p.ReduceNode("count", src, record.KeyA, func(k int64, g []record.Record, out dataflow.Emitter) {
		var s float64
		for _, r := range g {
			s += r.X
		}
		out.Emit(record.Record{A: k, X: s})
	})
	red.Combinable = true
	sink := p.SinkNode("out", red)
	res, _ := run(t, p, 4)
	got := sorted(res.Records(sink.ID))
	if len(got) != 4 {
		t.Fatalf("got %d groups: %v", len(got), got)
	}
	for _, r := range got {
		if r.X != 25 {
			t.Errorf("group %d = %v, want 25", r.A, r.X)
		}
	}
}

func TestMatchJoin(t *testing.T) {
	// Join (A=id, X=val) with edges (A=src, B=dst) on id==src.
	for _, par := range []int{1, 2, 5} {
		p := dataflow.NewPlan()
		vals := []record.Record{{A: 1, X: 10}, {A: 2, X: 20}, {A: 3, X: 30}}
		edges := []record.Record{{A: 1, B: 2}, {A: 1, B: 3}, {A: 2, B: 3}, {A: 9, B: 9}}
		l := p.SourceOf("vals", vals)
		r := p.SourceOf("edges", edges)
		j := p.MatchNode("join", l, r, record.KeyA, record.KeyA,
			func(lr, rr record.Record, out dataflow.Emitter) {
				out.Emit(record.Record{A: rr.B, X: lr.X})
			})
		sink := p.SinkNode("out", j)
		res, _ := run(t, p, par)
		got := sorted(res.Records(sink.ID))
		want := []record.Record{{A: 2, X: 10}, {A: 3, X: 10}, {A: 3, X: 20}}
		if len(got) != len(want) {
			t.Fatalf("par=%d: got %v", par, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("par=%d: got[%d]=%v want %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestMatchJoinStrategiesAgree(t *testing.T) {
	// All join strategies must produce identical results.
	vals := []record.Record{{A: 1, X: 1}, {A: 2, X: 2}, {A: 2, X: 3}}
	edges := []record.Record{{A: 2, B: 7}, {A: 2, B: 8}, {A: 1, B: 9}}
	build := func() (*dataflow.Plan, *dataflow.Node) {
		p := dataflow.NewPlan()
		l := p.SourceOf("vals", vals)
		r := p.SourceOf("edges", edges)
		j := p.MatchNode("join", l, r, record.KeyA, record.KeyA,
			func(lr, rr record.Record, out dataflow.Emitter) {
				out.Emit(record.Record{A: lr.A, B: rr.B, X: lr.X})
			})
		sink := p.SinkNode("out", j)
		return p, sink
	}
	var results [][]record.Record
	for _, local := range []optimizer.LocalStrategy{optimizer.LocalHashJoin, optimizer.LocalSortMergeJoin} {
		p, sink := build()
		phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Force the local strategy on the join node.
		for _, n := range phys.Nodes {
			if n.Logical.Contract == dataflow.MatchOp {
				n.Local = local
				if local == optimizer.LocalSortMergeJoin {
					n.SortKey = record.KeyA
				}
			}
		}
		e := NewExecutor(Config{})
		res, err := e.Run(phys)
		if err != nil {
			t.Fatalf("%s: %v", local, err)
		}
		results = append(results, sorted(res.Records(sink.ID)))
	}
	if len(results[0]) != len(results[1]) || len(results[0]) != 5 {
		t.Fatalf("strategy disagreement: %v vs %v", results[0], results[1])
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Errorf("row %d: hash=%v smj=%v", i, results[0][i], results[1][i])
		}
	}
}

func TestCross(t *testing.T) {
	p := dataflow.NewPlan()
	l := p.SourceOf("l", recs(1, 2))
	r := p.SourceOf("r", recs(10, 20, 30))
	x := p.CrossNode("x", l, r, func(lr, rr record.Record, out dataflow.Emitter) {
		out.Emit(record.Record{A: lr.A, B: rr.A})
	})
	sink := p.SinkNode("out", x)
	res, _ := run(t, p, 2)
	got := res.Records(sink.ID)
	if len(got) != 6 {
		t.Fatalf("cross emitted %d pairs, want 6", len(got))
	}
}

func TestUnion(t *testing.T) {
	p := dataflow.NewPlan()
	a := p.SourceOf("a", recs(1, 2))
	b := p.SourceOf("b", recs(3))
	u := p.UnionNode("u", a, b)
	sink := p.SinkNode("out", u)
	res, _ := run(t, p, 2)
	got := sorted(res.Records(sink.ID))
	if len(got) != 3 || got[0].A != 1 || got[2].A != 3 {
		t.Fatalf("union got %v", got)
	}
}

func TestFilter(t *testing.T) {
	p := dataflow.NewPlan()
	src := p.SourceOf("s", recs(1, 2, 3, 4, 5, 6))
	f := p.FilterNode("even", src, func(r record.Record) bool { return r.A%2 == 0 })
	sink := p.SinkNode("out", f)
	res, _ := run(t, p, 3)
	if got := res.Records(sink.ID); len(got) != 3 {
		t.Fatalf("filter got %v", got)
	}
}

func TestUDFPanicBecomesError(t *testing.T) {
	p := dataflow.NewPlan()
	src := p.SourceOf("s", recs(1))
	m := p.MapNode("boom", src, func(r record.Record, out dataflow.Emitter) {
		panic("kaboom")
	})
	p.SinkNode("out", m)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(Config{})
	if _, err := e.Run(phys); err == nil {
		t.Fatal("want error from panicking UDF")
	}
}

func TestShippedRecordsCounted(t *testing.T) {
	p := dataflow.NewPlan()
	src := p.SourceOf("s", recs(1, 2, 3, 4))
	red := p.ReduceNode("g", src, record.KeyA, func(k int64, g []record.Record, out dataflow.Emitter) {
		out.Emit(record.Record{A: k})
	})
	p.SinkNode("out", red)
	_, m := run(t, p, 2)
	if m.Snapshot().RecordsShipped == 0 {
		t.Error("partitioning exchange should count shipped records")
	}
}

func TestFanOutSharedProducer(t *testing.T) {
	// One source feeding two sinks through different paths.
	p := dataflow.NewPlan()
	src := p.SourceOf("s", recs(1, 2, 3))
	m1 := p.MapNode("m1", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m2 := p.MapNode("m2", src, func(r record.Record, out dataflow.Emitter) {
		r.A += 10
		out.Emit(r)
	})
	s1 := p.SinkNode("o1", m1)
	s2 := p.SinkNode("o2", m2)
	res, _ := run(t, p, 2)
	if len(res.Records(s1.ID)) != 3 || len(res.Records(s2.ID)) != 3 {
		t.Fatalf("fan-out lost records: %d, %d", len(res.Records(s1.ID)), len(res.Records(s2.ID)))
	}
}

func TestSolutionSetMergeSemantics(t *testing.T) {
	var m metrics.Counters
	// Comparator: smaller B is the CPO-successor (Connected Components).
	cmp := func(a, b record.Record) int {
		switch {
		case a.B < b.B:
			return 1
		case a.B > b.B:
			return -1
		}
		return 0
	}
	s := NewSolutionSet(4, record.KeyA, cmp, &m)
	s.Init([]record.Record{{A: 1, B: 10}, {A: 2, B: 20}})
	if s.Size() != 2 {
		t.Fatalf("size=%d", s.Size())
	}
	// Improving delta replaces; worsening delta is discarded (§5.1).
	changed := s.MergeDelta([]record.Record{{A: 1, B: 5}, {A: 2, B: 99}, {A: 3, B: 30}})
	if changed != 2 {
		t.Fatalf("changed=%d, want 2 (one replace, one insert)", changed)
	}
	r, ok := s.Lookup(s.PartitionFor(1), 1)
	if !ok || r.B != 5 {
		t.Errorf("vertex 1 = %v", r)
	}
	r, _ = s.Lookup(s.PartitionFor(2), 2)
	if r.B != 20 {
		t.Errorf("worsening delta applied: %v", r)
	}
	if m.Snapshot().SolutionUpdates != 2 || m.Snapshot().SolutionAccesses != 2 {
		t.Errorf("metrics: %+v", m.Snapshot())
	}
}

// TestSolutionSetMergeDeltaParts: a delta merged as one slice, as the
// set's own partitions (applied where they are) or as parts that are not
// (grouped first) leaves the same solution and counts the same changes.
func TestSolutionSetMergeDeltaParts(t *testing.T) {
	for _, par := range []int{1, 4} {
		var flat []record.Record
		own := make([][]record.Record, par)
		for k := range int64(200) {
			r := record.Record{A: k % 150, B: k}
			flat = append(flat, r)
			p := record.PartitionOf(k%150, par)
			own[p] = append(own[p], r)
		}
		stray := append(own[1:len(own):len(own)], own[0])
		var want []record.Record
		for i, parts := range [][][]record.Record{{flat}, own, stray} {
			s := NewSolutionSet(par, record.KeyA, nil, nil)
			s.Init([]record.Record{{A: 1, B: -1}, {A: 7, B: -7}})
			if changed := s.MergeDelta(parts...); changed != 200 {
				t.Fatalf("P%d delta %d: changed=%d, want 200", par, i, changed)
			}
			got := sorted(s.Snapshot())
			if i == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("P%d delta %d: solution differs from the flat merge's", par, i)
			}
		}
	}
}

func TestSolutionSetNoComparatorReplaces(t *testing.T) {
	s := NewSolutionSet(2, record.KeyA, nil, nil)
	s.Init([]record.Record{{A: 1, B: 1}})
	s.MergeDelta([]record.Record{{A: 1, B: 2}})
	r, _ := s.Lookup(s.PartitionFor(1), 1)
	if r.B != 2 {
		t.Errorf("delta must replace without comparator: %v", r)
	}
	if s.MergeDelta([]record.Record{{A: 1, B: 2}}) != 0 {
		t.Error("identical record must not count as a change")
	}
}

func TestResultRecordsFlatten(t *testing.T) {
	r := Result{5: [][]record.Record{recs(1), recs(2, 3)}}
	if len(r.Records(5)) != 3 {
		t.Error("flatten failed")
	}
	if len(r.Records(99)) != 0 {
		t.Error("missing sink should flatten empty")
	}
}
