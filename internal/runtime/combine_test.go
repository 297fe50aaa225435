package runtime_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Combine UDFs with different output arities. All arithmetic is on int64
// fields, so results are exact whatever the grouping.
var foldUDFs = []struct {
	name string
	fn   dataflow.ReduceFn
}{
	{"one", func(k int64, g []record.Record, out dataflow.Emitter) {
		var s int64
		for _, r := range g {
			s += r.B
		}
		out.Emit(record.Record{A: k, B: s})
	}},
	// zero drops a partial whose sum is a multiple of 4.
	{"zero", func(k int64, g []record.Record, out dataflow.Emitter) {
		var s int64
		for _, r := range g {
			s += r.B
		}
		if s%4 != 0 {
			out.Emit(record.Record{A: k, B: s})
		}
	}},
	// two splits a multi-record partial whose sum is a multiple of 3 in
	// two, and drops one whose sum is a multiple of 7: a key can go cold
	// with zero or with two pending records.
	{"two", func(k int64, g []record.Record, out dataflow.Emitter) {
		var s int64
		for _, r := range g {
			s += r.B
		}
		switch {
		case len(g) > 1 && s%7 == 0:
		case len(g) > 1 && s%3 == 0:
			out.Emit(record.Record{A: k, B: s - 1})
			out.Emit(record.Record{A: k, B: 1})
		default:
			out.Emit(record.Record{A: k, B: s})
		}
	}},
}

// foldPlan is source → expand (a Map that sometimes emits twice) →
// combinable Reduce → sink. The Reduce UDF passes its group through, so
// the sink holds exactly what the combiners emitted.
func foldPlan(data []record.Record, combine dataflow.ReduceFn) (*dataflow.Plan, *dataflow.Node) {
	p := dataflow.NewPlan()
	src := p.SourceOf("src", data)
	expand := p.MapNode("expand", src, foldExpand)
	red := p.ReduceNode("fold", expand, record.KeyA, func(_ int64, g []record.Record, out dataflow.Emitter) {
		for _, r := range g {
			out.Emit(r)
		}
	})
	red.Combinable = true
	red.Combine = combine
	red.EstRecords = 8 // few keys: the cost model wants the combiner
	return p, p.SinkNode("out", red)
}

func foldExpand(r record.Record, out dataflow.Emitter) {
	out.Emit(r)
	if r.B%5 == 0 {
		out.Emit(record.Record{A: r.A, B: r.B + 1})
	}
}

// oracleFold applies the fold contract to one partition's arrivals: per
// key, an empty state takes the next record as is, a non-empty one is
// replaced by what the UDF emits for (state..., record), and whatever
// state is left gets one final call.
func oracleFold(fn dataflow.ReduceFn, arrivals []record.Record) []record.Record {
	state := make(map[int64][]record.Record)
	var order []int64
	for _, r := range arrivals {
		s, seen := state[r.A]
		if !seen {
			order = append(order, r.A)
		}
		if len(s) == 0 {
			state[r.A] = []record.Record{r}
			continue
		}
		var next []record.Record
		fn(r.A, append(s, r), collect{&next})
		state[r.A] = next
	}
	var out []record.Record
	for _, k := range order {
		if s := state[k]; len(s) > 0 {
			fn(k, s, collect{&out})
		}
	}
	return out
}

func sortRecs(rs []record.Record) []record.Record {
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

type collect struct{ buf *[]record.Record }

func (c collect) Emit(r record.Record) { *c.buf = append(*c.buf, r) }

func countCombiners(p *optimizer.PhysPlan) (standalone, absorbed int) {
	for _, n := range p.Nodes {
		if n.Role == optimizer.RoleCombiner {
			standalone++
		}
		if n.Combiner != nil {
			absorbed++
		}
	}
	return standalone, absorbed
}

// TestCombinerFold checks the combiner's fold contract — fused into its
// producer and as a standalone task, at Parallelism 1 and 3, on both lanes
// — against an oracle that folds each key's arrival sequence pairwise, for
// combine UDFs that emit zero, one and two records; and that the shipped
// algorithms' plans run their combiners fused.
func TestCombinerFold(t *testing.T) {
	t.Run("oracle", foldMatchesOracle)
	t.Run("shipped-plans", shippedCombinersFuse)
}

func foldMatchesOracle(t *testing.T) {
	data := make([]record.Record, 600)
	for i := range data {
		data[i] = record.Record{A: int64(i*7) % 11, B: int64(i%13 + 1)}
	}
	for _, udf := range foldUDFs {
		for _, par := range []int{1, 3} {
			// The source splits its data contiguously; each partition's
			// combiner sees its slice through the expand Map, in order.
			var want []record.Record
			for part := 0; part < par; part++ {
				var arrivals []record.Record
				for _, r := range data[part*len(data)/par : (part+1)*len(data)/par] {
					foldExpand(r, collect{&arrivals})
				}
				want = append(want, oracleFold(udf.fn, arrivals)...)
			}
			want = sortRecs(want)
			for _, fuse := range []bool{true, false} {
				for _, serial := range []bool{true, false} {
					ctx := fmt.Sprintf("%s par=%d fuse=%v serial=%v", udf.name, par, fuse, serial)
					p, sink := foldPlan(data, udf.fn)
					phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, Fuse: fuse})
					if err != nil {
						t.Fatal(err)
					}
					standalone, absorbed := countCombiners(phys)
					if fuse && (standalone != 0 || absorbed != 1) || !fuse && (standalone != 1 || absorbed != 0) {
						t.Fatalf("%s: %d combiner tasks, %d absorbed:\n%s", ctx, standalone, absorbed, phys.Explain())
					}
					restore := runtime.ForceLane(func() bool { return serial })
					res, err := runtime.NewExecutor(runtime.Config{}).Run(phys)
					restore()
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					got := sortRecs(res.Records(sink.ID))
					if len(got) != len(want) {
						t.Fatalf("%s: %d records, oracle %d", ctx, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: record %d = %v, oracle %v", ctx, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// shippedCombinersFuse: the shipped combinable reduces — PageRank's
// sumRanks, BGD's predict and gradient, bulk CC's minCid — run with every
// combiner the planner chose absorbed into its producer, and none left as
// a task of its own; with fusion disabled they stay tasks.
func shippedCombinersFuse(t *testing.T) {
	g := graphgen.Uniform("fold", 200, 800, 5)
	pr, prInit := algorithms.PageRankSpec(g, 2, algorithms.DefaultDamping, 0)
	cc, ccInit := algorithms.CCBulkSpec(g)
	examples := make([]algorithms.Example, 40)
	for i := range examples {
		examples[i] = algorithms.Example{Features: []float64{1, float64(i % 5), float64(i % 3)}, Label: float64(i % 2)}
	}
	bgd, bgdInit := algorithms.BGDSpec(examples, 3, 0.5, 2)
	for _, job := range []struct {
		name    string
		spec    iterative.BulkSpec
		initial []record.Record
		want    int // combinable reduces in the plan
	}{{"pagerank", pr, prInit, 1}, {"cc-bulk", cc, ccInit, 1}, {"bgd", bgd, bgdInit, 2}} {
		for _, disable := range []bool{false, true} {
			res, err := iterative.RunBulk(job.spec, job.initial, iterative.Config{Parallelism: 2, DisableFusion: disable})
			if err != nil {
				t.Fatalf("%s: %v", job.name, err)
			}
			standalone, absorbed := countCombiners(res.Plan)
			if got := standalone + absorbed; got > job.want {
				t.Fatalf("%s: %d combiners for %d combinable reduces:\n%s", job.name, got, job.want, res.Plan.Explain())
			}
			if !disable && standalone != 0 {
				t.Errorf("%s: %d combiner tasks left in the fused plan:\n%s", job.name, standalone, res.Plan.Explain())
			}
			if disable && absorbed != 0 {
				t.Errorf("%s: combiner absorbed with fusion disabled:\n%s", job.name, res.Plan.Explain())
			}
			if job.name == "pagerank" && standalone+absorbed != 1 {
				t.Errorf("pagerank plan lost its combiner:\n%s", res.Plan.Explain())
			}
		}
	}
}

// TestSetPlaceholderFolded checks SetPlaceholderFolded against the fold
// oracle: each partition must hold exactly what the fold contract leaves
// of that partition's records, in first-touch order, for combine UDFs
// emitting zero, one and two records — for inputs folded inline and ones
// split over goroutines, and again on a second seed, which reuses the
// folds' storage.
func TestSetPlaceholderFolded(t *testing.T) {
	for _, udf := range foldUDFs {
		fold := &dataflow.Node{Name: udf.name, Contract: dataflow.ReduceOp,
			Keys: [2]record.KeyFunc{record.KeyA}, Combinable: true, Reduce: udf.fn}
		for _, c := range []struct{ par, n int }{{1, 500}, {3, 500}, {2, 5000}, {3, 5000}} {
			par := c.par
			e := runtime.NewExecutor(runtime.Config{})
			for seed := 0; seed < 2; seed++ {
				data := make([]record.Record, c.n)
				for i := range data {
					data[i] = record.Record{A: int64(i*7+seed) % 23, B: int64(i%13 + 1)}
				}
				e.SetPlaceholderFolded(0, data, par, fold)
				for part := 0; part < par; part++ {
					var arrivals []record.Record
					for _, r := range data {
						if record.PartitionOf(r.A, par) == part {
							arrivals = append(arrivals, r)
						}
					}
					if got, want := e.Placeholder[0][part], oracleFold(udf.fn, arrivals); !slices.Equal(got, want) {
						t.Fatalf("%s par=%d n=%d seed %d partition %d:\n got %v\nwant %v", udf.name, par, c.n, seed, part, got, want)
					}
				}
			}
		}
	}
}
