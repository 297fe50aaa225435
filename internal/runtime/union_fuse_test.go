package runtime

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// unionCase is one plan shape for TestFusedUnionMatchesUnfused: a union
// whose input 0 is a plain operator, so the fusion rewrite absorbs it.
type unionCase struct {
	name string
	// build returns the logical plan, its sink, and the placeholder the
	// run feeds each superstep (nil for none).
	build func() (*dataflow.Plan, *dataflow.Node, *dataflow.Node)
	iters int // ExpectedIterations, and the supersteps run
	// mutate edits the unfused physical plan before the rewrite sees it.
	mutate func(t *testing.T, p *optimizer.PhysPlan)
	// shuffled: the union's output crosses a partitioning exchange, so on
	// the parallel lane the order producers' batches interleave in is not
	// fixed, and partitions compare as multisets there.
	shuffled bool
	combiner bool // the union's output feeds an absorbed combiner
}

// unionData is integer-valued input with repeated keys.
func unionData(n, mod int, salt int64) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{A: int64(i*7+int(salt)) % int64(mod), B: int64(i%11) + salt}
	}
	return recs
}

// unionExpand is a Map that sometimes emits twice.
func unionExpand(r record.Record, out dataflow.Emitter) {
	out.Emit(record.Record{A: r.A, B: r.B * 3})
	if r.B%4 == 0 {
		out.Emit(record.Record{A: r.A + 1, B: r.B})
	}
}

// sumB is a combinable sum over B: integer, so exact in any grouping.
func sumB(k int64, g []record.Record, out dataflow.Emitter) {
	var s int64
	for _, r := range g {
		s += r.B
	}
	out.Emit(record.Record{A: k, B: s})
}

var unionCases = []unionCase{
	{
		name: "forward",
		build: func() (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
			p := dataflow.NewPlan()
			m := p.MapNode("m", p.SourceOf("a", unionData(700, 40, 0)), unionExpand)
			u := p.UnionNode("u", m, p.SourceOf("b", unionData(500, 30, 5)), p.SourceOf("c", unionData(90, 9, 2)))
			return p, p.SinkNode("out", u), nil
		},
		iters: 1,
	},
	{
		// The planners forward every union input; this tail is made to
		// ship partitioned by hand, so the absorbed tail reads a shuffle.
		name: "partition-tail",
		build: func() (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
			p := dataflow.NewPlan()
			m := p.MapNode("m", p.SourceOf("a", unionData(700, 40, 0)), unionExpand)
			u := p.UnionNode("u", m, p.SourceOf("b", unionData(500, 30, 5)))
			return p, p.SinkNode("out", u), nil
		},
		iters: 1,
		mutate: func(t *testing.T, p *optimizer.PhysPlan) {
			for _, n := range p.Nodes {
				if n.Logical.Name == "u" {
					n.Inputs[1].Ship, n.Inputs[1].Key = optimizer.ShipPartition, record.KeyA
					return
				}
			}
			t.Fatal("no union in the plan")
		},
		shuffled: true,
	},
	{
		// Iterated: the constant tail is cached on the first superstep
		// and replayed into the fused operator's emitter — and from there
		// into the absorbed combiner — on the later ones.
		name: "cached-tail-combiner",
		build: func() (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
			p := dataflow.NewPlan()
			ph := p.IterationPlaceholder("p", 700)
			m := p.MapNode("m", ph, unionExpand)
			u := p.UnionNode("u", m, p.SourceOf("c", unionData(300, 25, 3)))
			red := p.ReduceNode("sum", u, record.KeyA, sumB)
			red.Combinable = true
			red.EstRecords = 8 // few keys: the cost model wants the combiner
			return p, p.SinkNode("out", red), ph
		},
		iters:    3,
		shuffled: true,
		combiner: true,
	},
}

// runUnionCase plans c unfused, applies its mutation, and — when fuse is
// set — runs the fusion rewrite on the result; then it runs c.iters
// supersteps in one session on the chosen lane and returns every
// superstep's sink partitions, and the plan.
func runUnionCase(t *testing.T, c unionCase, par int, fuse, serial bool) ([][][]record.Record, *optimizer.PhysPlan) {
	t.Helper()
	p, sink, ph := c.build()
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, ExpectedIterations: c.iters})
	if err != nil {
		t.Fatal(err)
	}
	if c.mutate != nil {
		c.mutate(t, phys)
	}
	if fuse {
		phys.Fused = optimizer.Fuse(phys, c.iters)
	}
	e := NewExecutor(Config{})
	defer e.Close()
	restore := ForceLane(func() bool { return serial })
	defer restore()
	s := e.OpenSession(phys)
	defer s.Close()
	var steps [][][]record.Record
	for step := 0; step < c.iters; step++ {
		if ph != nil {
			e.SetPlaceholder(ph.ID, unionData(700, 50, int64(step)), nil, par)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, res[sink.ID])
	}
	return steps, phys
}

// TestFusedUnionMatchesUnfused runs plans whose union the rewrite absorbs
// into the producer of its input 0 — with forward tails, a partitioned
// tail, and a cached tail feeding an absorbed combiner — fused and
// unfused, at Parallelism 1 and 3, on both lanes. The fused operator
// streams the tail inputs after its own output, in input order, as the
// union's task read them, so each sink partition must hold the same
// records in the same order: at Parallelism 1 always, at 3 wherever the
// order is fixed — everywhere but behind a shuffle on the parallel lane,
// where the partitions must hold the same multisets.
func TestFusedUnionMatchesUnfused(t *testing.T) {
	for _, c := range unionCases {
		for _, par := range []int{1, 3} {
			for _, serial := range []bool{true, false} {
				ctx := fmt.Sprintf("%s par=%d serial=%v", c.name, par, serial)
				plain, unfused := runUnionCase(t, c, par, false, serial)
				got, fused := runUnionCase(t, c, par, true, serial)
				var head *optimizer.PhysNode
				for _, n := range fused.Nodes {
					if n.Union != nil {
						head = n
					}
					if n.Logical.Contract == dataflow.UnionOp {
						t.Fatalf("%s: union left as a task:\n%s", ctx, fused.Explain())
					}
				}
				if head == nil || head.Union.Name != "u" || len(head.Inputs) <= len(head.Logical.Inputs) {
					t.Fatalf("%s: no operator absorbed the union with its tail:\n%s", ctx, fused.Explain())
				}
				if c.combiner && head.Combiner == nil {
					t.Fatalf("%s: the union's producer did not absorb the combiner:\n%s", ctx, fused.Explain())
				}
				if len(fused.Nodes) >= len(unfused.Nodes) {
					t.Fatalf("%s: fusion kept %d of %d nodes", ctx, len(fused.Nodes), len(unfused.Nodes))
				}
				exact := par == 1 || serial || !c.shuffled
				for step := range plain {
					for part := range plain[step] {
						want, have := plain[step][part], got[step][part]
						if !exact {
							want, have = sortedRecords(want), sortedRecords(have)
						}
						if i := firstDiff(have, want); i >= 0 {
							t.Fatalf("%s step %d partition %d: %d records fused, %d unfused, first differing at %d",
								ctx, step, part, len(have), len(want), i)
						}
					}
				}
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []record.Record) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func sortedRecords(rs []record.Record) []record.Record {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b record.Record) int {
		switch {
		case record.Less(a, b):
			return -1
		case record.Less(b, a):
			return 1
		}
		return 0
	})
	return out
}
