package dataflow

import (
	"strings"
	"testing"

	"repro/internal/record"
)

func TestBuildAndValidateLinearPlan(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("src", []record.Record{{A: 1}, {A: 2}})
	m := p.MapNode("double", src, func(r record.Record, out Emitter) {
		r.A *= 2
		out.Emit(r)
	})
	red := p.ReduceNode("sum", m, record.KeyA, func(k int64, g []record.Record, out Emitter) {
		out.Emit(record.Record{A: k, B: int64(len(g))})
	})
	p.SinkNode("out", red)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if len(p.Nodes()) != 4 || len(p.Sinks()) != 1 {
		t.Fatalf("nodes=%d sinks=%d", len(p.Nodes()), len(p.Sinks()))
	}
}

func TestValidateRejectsNoSink(t *testing.T) {
	p := NewPlan()
	p.SourceOf("s", nil)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no sinks") {
		t.Fatalf("want no-sinks error, got %v", err)
	}
}

func TestValidateRejectsMissingUDF(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	p.nodes = append(p.nodes, &Node{Name: "m", Contract: MapOp, Inputs: []*Node{src}, plan: p})
	p.SinkNode("out", p.nodes[len(p.nodes)-1])
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no user function") {
		t.Fatalf("want missing-UDF error, got %v", err)
	}
}

func TestValidateRejectsMissingKey(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	n := p.add(&Node{Name: "r", Contract: ReduceOp, Inputs: []*Node{src},
		Reduce: func(int64, []record.Record, Emitter) {}})
	p.SinkNode("out", n)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "missing key") {
		t.Fatalf("want missing-key error, got %v", err)
	}
}

func TestValidateRejectsCrossPlanReference(t *testing.T) {
	p1 := NewPlan()
	foreign := p1.SourceOf("s1", nil)
	p2 := NewPlan()
	m := p2.MapNode("m", foreign, func(r record.Record, out Emitter) { out.Emit(r) })
	p2.SinkNode("out", m)
	if err := p2.Validate(); err == nil || !strings.Contains(err.Error(), "another plan") {
		t.Fatalf("want cross-plan error, got %v", err)
	}
}

func TestValidateRejectsConsumingSink(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	sink := p.SinkNode("out", src)
	m := p.MapNode("m", sink, func(r record.Record, out Emitter) { out.Emit(r) })
	p.SinkNode("out2", m)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "consumes a sink") {
		t.Fatalf("want sink-consumption error, got %v", err)
	}
}

func TestValidateArity(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	bad := p.add(&Node{Name: "j", Contract: MatchOp, Inputs: []*Node{src},
		Keys:  [2]record.KeyFunc{record.KeyA, record.KeyA},
		Match: func(l, r record.Record, out Emitter) {}})
	p.SinkNode("out", bad)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "inputs") {
		t.Fatalf("want arity error, got %v", err)
	}
}

func TestBinaryOperatorsValidate(t *testing.T) {
	p := NewPlan()
	a := p.SourceOf("a", nil)
	b := p.SourceOf("b", nil)
	j := p.MatchNode("join", a, b, record.KeyA, record.KeyB,
		func(l, r record.Record, out Emitter) { out.Emit(l) })
	x := p.CrossNode("x", j, b, func(l, r record.Record, out Emitter) {})
	u := p.UnionNode("u", x, a)
	p.SinkNode("out", u)
	if err := p.Validate(); err != nil {
		t.Fatalf("binary plan rejected: %v", err)
	}
}

func TestSolutionOperatorsValidate(t *testing.T) {
	p := NewPlan()
	w := p.IterationPlaceholder("W", 100)
	sj := p.SolutionJoinNode("upd", w, record.KeyA,
		func(w, s record.Record, found bool, out Emitter) {})
	scg := p.SolutionCoGroupNode("upd2", sj, record.KeyA,
		func(k int64, ws []record.Record, s record.Record, found bool, out Emitter) {})
	p.SinkNode("D", scg)
	if err := p.Validate(); err != nil {
		t.Fatalf("solution plan rejected: %v", err)
	}
}

func TestConsumers(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	m1 := p.MapNode("m1", src, func(r record.Record, out Emitter) { out.Emit(r) })
	m2 := p.MapNode("m2", src, func(r record.Record, out Emitter) { out.Emit(r) })
	p.SinkNode("o1", m1)
	p.SinkNode("o2", m2)
	cons := p.Consumers()
	if len(cons[src.ID]) != 2 {
		t.Errorf("source should have 2 consumers, has %d", len(cons[src.ID]))
	}
}

func TestFilterNode(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", nil)
	f := p.FilterNode("f", src, func(r record.Record) bool { return r.A > 0 })
	p.SinkNode("o", f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var got []record.Record
	f.Map(record.Record{A: 1}, emitFunc(func(r record.Record) { got = append(got, r) }))
	f.Map(record.Record{A: -1}, emitFunc(func(r record.Record) { got = append(got, r) }))
	if len(got) != 1 || got[0].A != 1 {
		t.Errorf("filter output wrong: %v", got)
	}
}

type emitFunc func(record.Record)

func (f emitFunc) Emit(r record.Record) { f(r) }

func TestContractStrings(t *testing.T) {
	for c := Source; c <= SolutionCoGroup; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "Contract(") {
			t.Errorf("contract %d has no name", int(c))
		}
	}
	if !strings.HasPrefix(Contract(99).String(), "Contract(") {
		t.Error("unknown contract should fall back to numeric form")
	}
}

func TestRecordAtATime(t *testing.T) {
	if !MapOp.RecordAtATime() || !MatchOp.RecordAtATime() || !SolutionJoin.RecordAtATime() {
		t.Error("record-at-a-time contracts misclassified")
	}
	if ReduceOp.RecordAtATime() || SolutionCoGroup.RecordAtATime() {
		t.Error("group-at-a-time contracts misclassified")
	}
}
