package spinflow

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/optimizer"
)

func TestExecuteSimplePlan(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("nums", []Record{{A: 1}, {A: 2}, {A: 3}})
	sq := p.MapNode("square", src, func(r Record, out Emitter) {
		r.B = r.A * r.A
		out.Emit(r)
	})
	sink := p.SinkNode("out", sq)
	res, err := Execute(p, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res[sink]
	sort.Slice(got, func(i, j int) bool { return got[i].A < got[j].A })
	if len(got) != 3 || got[2].B != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestPublicBulkIteration(t *testing.T) {
	p := NewPlan()
	in := p.IterationPlaceholder("I", 1)
	inc := p.MapNode("inc", in, func(r Record, out Emitter) {
		r.A++
		out.Emit(r)
	})
	o := p.SinkNode("O", inc)
	res, err := RunBulk(BulkSpec{Plan: p, Input: in, Output: o, FixedIterations: 7},
		[]Record{{A: 0}}, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != 1 || res.Solution[0].A != 7 {
		t.Fatalf("solution %v", res.Solution)
	}
}

func TestPublicIncrementalIteration(t *testing.T) {
	// Min-propagation along a 3-chain through the public API.
	p := NewPlan()
	w := p.IterationPlaceholder("W", 4)
	upd := p.SolutionJoinNode("upd", w, KeyA, func(c, s Record, found bool, out Emitter) {
		if found && c.B < s.B {
			out.Emit(Record{A: c.A, B: c.B})
		}
	})
	upd.Preserve(0, KeyA)
	d := p.SinkNode("D", upd)
	edges := p.SourceOf("E", []Record{{A: 0, B: 1}, {A: 1, B: 2}})
	prop := p.MatchNode("prop", upd, edges, KeyA, KeyA, func(dr, er Record, out Emitter) {
		out.Emit(Record{A: er.B, B: dr.B})
	})
	w2 := p.SinkNode("W2", prop)
	spec := IncrementalSpec{
		Plan: p, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: KeyA, WorksetKey: KeyA,
	}
	s0 := []Record{{A: 0, B: 0}, {A: 1, B: 1}, {A: 2, B: 2}}
	w0 := []Record{{A: 1, B: 0}}

	if _, err := ValidateMicrostep(spec); err != nil {
		t.Fatalf("spec should be microstep-admissible: %v", err)
	}
	res, err := RunIncremental(spec, s0, w0, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != len(s0) {
		t.Fatalf("solution %v, want one record per key of s0", res.Solution)
	}
	got := map[int64]int64{}
	for _, r := range res.Solution {
		got[r.A] = r.B
	}
	if got[1] != 0 || got[2] != 0 {
		t.Fatalf("propagation failed: %v", got)
	}
}

func TestExplain(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", []Record{{A: 1}})
	red := p.ReduceNode("g", src, KeyA, func(k int64, g []Record, out Emitter) {})
	p.SinkNode("o", red)
	s, err := Explain(p, Config{Parallelism: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "partition") {
		t.Errorf("explain missing shipping info:\n%s", s)
	}
}

func TestDatasets(t *testing.T) {
	g := LoadDataset(DatasetFOAF, 0.05)
	if g == nil || g.NumVertices == 0 {
		t.Fatal("dataset empty")
	}
	u := UniformGraph(10, 20, 1)
	if u.NumEdges() != 20 {
		t.Fatal("uniform graph wrong size")
	}
	pl := PowerLawGraph(50, 2, 1)
	if pl.NumVertices != 50 {
		t.Fatal("powerlaw graph wrong size")
	}
}

func TestMetricsThroughPublicAPI(t *testing.T) {
	var m Counters
	p := NewPlan()
	src := p.SourceOf("s", []Record{{A: 1}, {A: 2}})
	red := p.ReduceNode("g", src, KeyA, func(k int64, g []Record, out Emitter) {
		out.Emit(Record{A: k})
	})
	p.SinkNode("o", red)
	if _, err := Execute(p, Config{Parallelism: 2, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().UDFInvocations == 0 {
		t.Error("metrics not wired through Execute")
	}
}

func TestExplainDOT(t *testing.T) {
	p := NewPlan()
	src := p.SourceOf("s", []Record{{A: 1}})
	red := p.ReduceNode("g", src, KeyA, func(k int64, g []Record, out Emitter) {})
	p.SinkNode("o", red)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 4, ExpectedIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	dot := phys.DOT()
	if !strings.Contains(dot, "digraph physplan") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}
