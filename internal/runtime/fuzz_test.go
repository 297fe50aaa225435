package runtime

import (
	"fmt"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Plan fuzzing: random chains of operators over random data must produce
// identical result sets regardless of parallelism and of the strategies
// the optimizer chooses. This is the engine's core correctness contract.

type fuzzRNG struct{ s uint64 }

func (r *fuzzRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *fuzzRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// buildRandomPlan assembles a random DAG of 1-6 operators over two source
// datasets. All UDFs are deterministic and order-insensitive.
func buildRandomPlan(seed uint64) (*dataflow.Plan, *dataflow.Node) {
	rng := &fuzzRNG{s: seed | 1}
	mk := func(n int, keyRange int64) []record.Record {
		out := make([]record.Record, n)
		for i := range out {
			v := rng.next()
			out[i] = record.Record{A: int64(v % uint64(keyRange)), B: int64(v >> 13 % 50), X: float64(v % 100)}
		}
		return out
	}
	p := dataflow.NewPlan()
	cur := p.SourceOf("a", mk(40+rng.intn(60), 15))
	other := p.SourceOf("b", mk(30+rng.intn(40), 15))

	ops := 1 + rng.intn(5)
	for i := 0; i < ops; i++ {
		switch rng.intn(5) {
		case 0:
			cur = p.MapNode(fmt.Sprintf("map%d", i), cur, func(r record.Record, out dataflow.Emitter) {
				r.X += 1
				out.Emit(r)
			})
		case 1:
			cur = p.FilterNode(fmt.Sprintf("filter%d", i), cur, func(r record.Record) bool {
				return r.A%3 != 1
			})
		case 2:
			cur = p.ReduceNode(fmt.Sprintf("reduce%d", i), cur, record.KeyA,
				func(k int64, g []record.Record, out dataflow.Emitter) {
					var sx float64
					var sb int64
					for _, r := range g {
						sx += r.X
						sb += r.B
					}
					out.Emit(record.Record{A: k, B: sb, X: sx})
				})
		case 3:
			cur = p.MatchNode(fmt.Sprintf("join%d", i), cur, other, record.KeyA, record.KeyA,
				func(l, r record.Record, out dataflow.Emitter) {
					out.Emit(record.Record{A: l.A, B: l.B + r.B, X: l.X})
				})
		case 4:
			cur = p.UnionNode(fmt.Sprintf("union%d", i), cur, other)
		}
	}
	sink := p.SinkNode("out", cur)
	return p, sink
}

func runPlanAt(t *testing.T, seed uint64, par int) []record.Record {
	t.Helper()
	p, sink := buildRandomPlan(seed)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par})
	if err != nil {
		t.Fatalf("seed %d par %d: optimize: %v", seed, par, err)
	}
	e := NewExecutor(Config{})
	res, err := e.Run(phys)
	if err != nil {
		t.Fatalf("seed %d par %d: run: %v", seed, par, err)
	}
	return sorted(res.Records(sink.ID))
}

func TestFuzzPlansParallelismInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		baseline := runPlanAt(t, seed, 1)
		for _, par := range []int{2, 5} {
			got := runPlanAt(t, seed, par)
			if len(got) != len(baseline) {
				t.Fatalf("seed %d: par %d produced %d records, par 1 produced %d",
					seed, par, len(got), len(baseline))
			}
			for i := range got {
				if got[i] != baseline[i] {
					t.Fatalf("seed %d par %d: record %d = %v, want %v",
						seed, par, i, got[i], baseline[i])
				}
			}
		}
	}
}

func TestFuzzPlansRepeatable(t *testing.T) {
	// The same plan executed twice on one executor must agree (exchange
	// scheduling must not leak into results).
	for seed := uint64(100); seed <= 120; seed++ {
		a := runPlanAt(t, seed, 3)
		b := runPlanAt(t, seed, 3)
		if len(a) != len(b) {
			t.Fatalf("seed %d: non-deterministic cardinality", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: non-deterministic record %d", seed, i)
			}
		}
	}
}
