package optimizer

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

func benchPlan() (*dataflow.Plan, Options) {
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 1000)
	src := withEst(p.SourceOf("edges", nil), 8000)
	j := p.MatchNode("join", w, src, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(r) })
	red := p.ReduceNode("agg", j, record.KeyB,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) })
	s1 := p.SinkNode("delta", red)
	s2 := p.SinkNode("next", red)
	opt := Options{
		Parallelism:        4,
		ExpectedIterations: 10,
		PlaceholderProps:   map[int]Props{w.ID: {Part: record.KeyID(record.KeyA)}},
		SinkPartition:      map[int]record.KeyFunc{s1.ID: record.KeyB, s2.ID: record.KeyA},
		Feedback:           map[int]int{w.ID: s2.ID},
	}
	return p, opt
}

func BenchmarkOptimizeCost(b *testing.B) {
	p, opt := benchPlan()
	opt.Planner = PlannerCost
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeGreedy(b *testing.B) {
	p, opt := benchPlan()
	opt.Planner = PlannerGreedy
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateOnly(b *testing.B) {
	p, _ := benchPlan()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
