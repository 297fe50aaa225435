package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// kernelXs are the X values a kernel stream draws from: signed zeros,
// NaN, both infinities, and finite values whose sums round.
var kernelXs = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1.5, -2.25, 0.1, 1e300, -1e300, 5e-324, 1 / 3.0,
}

// kernelShapes name the key domains a kernel stream covers: dense ids (the
// columns go by key), sparse and negative keys (they stay hashed), and
// dense ids with a key far past the direct table (the switch back to
// hashed, and later to direct again).
var kernelShapes = []string{"dense", "sparse", "negative", "past"}

// kernelStream returns one round of records of the given shape. B is
// drawn from a few values, so a keep-the-better fold on B sees ties.
func kernelStream(rng *rand.Rand, shape string, n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		var k int64
		switch shape {
		case "dense":
			k = rng.Int63n(300)
		case "sparse":
			k = rng.Int63n(1<<40) - 1<<39
		case "negative":
			k = rng.Int63n(100) - 50
		case "past":
			k = rng.Int63n(200)
			if rng.Intn(50) == 0 {
				k = 1<<30 + rng.Int63n(4)
			}
		}
		recs[i] = record.Record{A: k, B: rng.Int63n(4), X: kernelXs[rng.Intn(len(kernelXs))]}
	}
	return recs
}

// keepBetter is the UDF a keep-the-better fold would run: the record
// better ranks highest, the earliest on a tie.
func keepBetter(better record.Comparator) dataflow.ReduceFn {
	return func(_ int64, g []record.Record, out dataflow.Emitter) {
		b := g[0]
		for _, r := range g[1:] {
			if better(r, b) > 0 {
				b = r
			}
		}
		out.Emit(b)
	}
}

// Comparators for the keep-the-better kernel: the smaller B wins (CC's
// rule), and the smaller X wins (SSSP's; NaN compares equal to anything,
// so it ties).
func smallerB(a, b record.Record) int {
	switch {
	case a.B < b.B:
		return 1
	case a.B > b.B:
		return -1
	}
	return 0
}

func smallerX(a, b record.Record) int {
	switch {
	case a.X < b.X:
		return 1
	case a.X > b.X:
		return -1
	}
	return 0
}

// kernelPair returns a fold node that declares its aggregate and the node
// the general fold runs in its place: the declaration's derived UDF (a
// declared sum's own Reduce; keepBetter for a keep-the-better fold).
func kernelPair(kind string) (declared, general *dataflow.Node) {
	switch kind {
	case "sum":
		declared = dataflow.NewPlan().SumNode("sum", nil)
		g := *declared
		g.Sum = false
		return declared, &g
	}
	better := smallerB
	if kind == "best-x" {
		better = smallerX
	}
	declared = &dataflow.Node{Name: "best", Contract: dataflow.ReduceOp, Combinable: true,
		Keys: [2]record.KeyFunc{record.KeyA}, Better: better}
	g := *declared
	g.Better, g.Reduce = nil, keepBetter(better)
	return declared, &g
}

var kernelKinds = []string{"sum", "best-b", "best-x"}

// kernelDiff returns where two outputs first differ — the same records in
// the same order, X compared by its bits — as a message, or "" when they
// do not.
func kernelDiff(got, want []record.Record) string {
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B || math.Float64bits(g.X) != math.Float64bits(w.X) {
			return fmt.Sprintf("record %d: kernel %v (X bits %#x), udf %v (X bits %#x)",
				i, g, math.Float64bits(g.X), w, math.Float64bits(w.X))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("kernel emitted %d records, udf %d", len(got), len(want))
	}
	return ""
}

// foldRounds folds each round through f as l and returns the flushed
// outputs, round by round.
func foldRounds(f *combineFold, l *dataflow.Node, rounds [][]record.Record) [][]record.Record {
	outs := make([][]record.Record, len(rounds))
	for i, recs := range rounds {
		f.reset(l)
		for _, r := range recs {
			f.Emit(r)
		}
		f.flush(emitCollector{&outs[i]})
	}
	return outs
}

// TestFoldKernelMatchesUDF checks each kernel against the general fold
// running the declaration's derived UDF: the same rounds of records, over
// dense, sparse and negative keys and keys past the direct table, with
// −0, NaN and ±Inf in X and ties in B, must flush the same records, bit
// for bit, in the same order. The plan case runs a declared sum and its
// UDF twin through whole plans at Parallelism 1, 2 and 4, fused and
// standalone, and a keep-the-better fold absorbed into a producer.
func TestFoldKernelMatchesUDF(t *testing.T) {
	t.Run("fold", func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		for _, kind := range kernelKinds {
			for _, shape := range kernelShapes {
				var rounds [][]record.Record
				for i := range 12 {
					sh := shape
					if shape == "past" && i < 6 { // direct first, then the switch back
						sh = "dense"
					}
					rounds = append(rounds, kernelStream(rng, sh, rng.Intn(900)))
				}
				rounds = append(rounds, nil) // an empty round
				declared, general := kernelPair(kind)
				kf, gf := &combineFold{}, &combineFold{}
				modes := map[bool]int{} // rounds the kernel ended with columns by key, and not
				for i, recs := range rounds {
					got := foldRounds(kf, declared, [][]record.Record{recs})[0]
					want := foldRounds(gf, general, [][]record.Record{recs})[0]
					if d := kernelDiff(got, want); d != "" {
						t.Fatalf("%s %s round %d: %s", kind, shape, i, d)
					}
					modes[kf.byKey]++
				}
				byKey := shape == "dense" || shape == "past"
				if byKey != (modes[true] > 0) || shape != "dense" && modes[false] == 0 {
					t.Errorf("%s %s: rounds with columns by key / by position %d / %d", kind, shape, modes[true], modes[false])
				}
			}
		}
	})
	t.Run("plan", func(t *testing.T) {
		prev := laneOverride
		laneOverride = func() bool { return true } // a deterministic arrival order
		defer func() { laneOverride = prev }()
		rng := rand.New(rand.NewSource(63))
		for _, shape := range kernelShapes {
			data := kernelStream(rng, shape, 2000)
			for _, par := range []int{1, 2, 4} {
				for _, fuse := range []bool{true, false} {
					ctx := fmt.Sprintf("%s par=%d fuse=%v", shape, par, fuse)
					got := runSumPlan(t, ctx, data, par, fuse, true)
					want := runSumPlan(t, ctx, data, par, fuse, false)
					for p := range want {
						if d := kernelDiff(got[p], want[p]); d != "" {
							t.Fatalf("sum %s partition %d: %s", ctx, p, d)
						}
					}
					for _, kind := range kernelKinds[1:] {
						got := runBestPlan(t, ctx, data, par, fuse, kind, true)
						want := runBestPlan(t, ctx, data, par, fuse, kind, false)
						for p := range want {
							if d := kernelDiff(got[p], want[p]); d != "" {
								t.Fatalf("%s %s partition %d: %s", kind, ctx, p, d)
							}
						}
					}
				}
			}
		}
	})
}

// runSumPlan runs source → sum → sink, the sum declared or (declared
// false) its UDF twin, and returns the sink's partitions.
func runSumPlan(t *testing.T, ctx string, data []record.Record, par int, fuse, declared bool) [][]record.Record {
	t.Helper()
	p := dataflow.NewPlan()
	sum := p.SumNode("sum", p.SourceOf("src", data))
	sum.Sum = declared
	sum.EstRecords = 8 // few keys: the cost model wants the combiner
	sink := p.SinkNode("out", sum)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, Fuse: fuse})
	if err != nil {
		t.Fatal(err)
	}
	standalone, absorbed := 0, 0
	for _, n := range phys.Nodes {
		if n.Role == optimizer.RoleCombiner {
			standalone++
		}
		if n.Combiner != nil {
			absorbed++
		}
	}
	if fuse && absorbed != 1 || !fuse && standalone != 1 {
		t.Fatalf("%s: %d combiner tasks, %d absorbed:\n%s", ctx, standalone, absorbed, phys.Explain())
	}
	res, err := NewExecutor(Config{}).Run(phys)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	return res[sink.ID]
}

// runBestPlan runs the workset shape W → expand → W' with the
// keep-the-better fold absorbed into expand (optimizer.FoldWorkset), as
// the kernel (declared) or the general fold over keepBetter.
func runBestPlan(t *testing.T, ctx string, data []record.Record, par int, fuse bool, kind string, declared bool) [][]record.Record {
	t.Helper()
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", int64(len(data)))
	expand := p.MapNode("expand", w, func(r record.Record, out dataflow.Emitter) {
		out.Emit(r)
		if r.B == 0 {
			out.Emit(record.Record{A: r.A, B: 3, X: -r.X})
		}
	})
	expand.EstRecords = int64(len(data))
	sink := p.SinkNode("W'", expand)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, Fuse: fuse})
	if err != nil {
		t.Fatal(err)
	}
	fold, general := kernelPair(kind)
	if !declared {
		fold = general
	}
	if !optimizer.FoldWorkset(phys, sink.ID, fold, 8) {
		t.Fatalf("%s: the fold was not absorbed:\n%s", ctx, phys.Explain())
	}
	e := NewExecutor(Config{})
	e.SetPlaceholder(w.ID, data, nil, par)
	res, err := e.Run(phys)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	return res[sink.ID]
}

// FuzzFoldKernel feeds fuzzer-chosen rounds to each kernel and to the
// general fold over the derived UDF: every byte pair is one record (the
// key from the first byte — small, negative or far past the direct table
// — and X and B from the second), and a zero byte ends a round.
func FuzzFoldKernel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 5, 0, 0, 200, 3, 70, 70})
	f.Add([]byte{255, 1, 128, 2, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rounds [][]record.Record
		var cur []record.Record
		for i := 0; i+1 < len(data); i += 2 {
			kb, vb := data[i], data[i+1]
			if kb == 0 {
				rounds = append(rounds, cur)
				cur = nil
				continue
			}
			k := int64(kb)
			switch {
			case kb >= 0xf0:
				k = 1<<40 + int64(kb) // past any direct table
			case kb >= 0xc0:
				k = -int64(kb)
			}
			cur = append(cur, record.Record{A: k, B: int64(vb >> 6), X: kernelXs[int(vb)%len(kernelXs)]})
		}
		rounds = append(rounds, cur)
		for _, kind := range kernelKinds {
			declared, general := kernelPair(kind)
			got := foldRounds(&combineFold{}, declared, rounds)
			want := foldRounds(&combineFold{}, general, rounds)
			for i := range rounds {
				if d := kernelDiff(got[i], want[i]); d != "" {
					t.Fatalf("%s round %d: %s", kind, i, d)
				}
			}
		}
	})
}
