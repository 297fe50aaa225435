package runtime

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// fillRound builds one round of g from recs, split into pooled batches of
// the pool's size the way an exchange would deliver them.
func fillRound(g *groupTable, pool *batchPool, recs []record.Record) {
	g.reset()
	for len(recs) > 0 {
		b := pool.get()
		n := min(len(recs), pool.size)
		b = append(b, recs[:n]...)
		recs = recs[n:]
		g.stage(b, record.KeyA)
	}
	g.build(pool)
}

// TestGroupTableMatchesReference drives random record streams through
// rounds — shrinking, growing and empty ones, over key domains that move so
// keys disappear and come back — and checks every round against a
// map[int64][]Record built by appending: same groups, group order = first
// touch, in-group order = arrival.
func TestGroupTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := newBatchPool(16, nil)
	g := newGroupTable()
	for round := 0; round < 200; round++ {
		n := 0
		switch rng.Intn(4) {
		case 0: // empty round
		case 1:
			n = rng.Intn(8)
		default:
			n = rng.Intn(600)
		}
		base, span := int64(rng.Intn(3)*40), int64(1+rng.Intn(80))
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{A: base + rng.Int63n(span), B: int64(i), X: float64(round)}
		}
		fillRound(g, pool, recs)

		ref := map[int64][]record.Record{}
		var order []int64
		for _, r := range recs {
			if _, ok := ref[r.A]; !ok {
				order = append(order, r.A)
			}
			ref[r.A] = append(ref[r.A], r)
		}

		if g.size() != n {
			t.Fatalf("round %d: size %d, want %d", round, g.size(), n)
		}
		var gotOrder []int64
		g.each(func(k int64, grp []record.Record) {
			gotOrder = append(gotOrder, k)
			if !reflect.DeepEqual(grp, ref[k]) {
				t.Fatalf("round %d key %d: group %v, want %v", round, k, grp, ref[k])
			}
		})
		if !reflect.DeepEqual(gotOrder, order) {
			t.Fatalf("round %d: group order %v, want first-touch order %v", round, gotOrder, order)
		}
		for k := int64(-1); k <= 200; k++ {
			if got := g.get(k); !reflect.DeepEqual(got, ref[k]) {
				t.Fatalf("round %d: get(%d) = %v, want %v", round, k, got, ref[k])
			}
		}
	}
}

// TestGroupTableAbandonedRound: a round staged but never built (its task
// failed mid-drain) must not leak into the next one.
func TestGroupTableAbandonedRound(t *testing.T) {
	pool := newBatchPool(4, nil)
	g := newGroupTable()
	g.reset()
	g.stage(record.Batch{{A: 1, B: 1}, {A: 2, B: 2}}, record.KeyA)
	fillRound(g, pool, []record.Record{{A: 2, B: 9}})
	if g.size() != 1 || g.get(1) != nil || len(g.get(2)) != 1 || g.get(2)[0].B != 9 {
		t.Fatalf("abandoned round leaked: size %d, get(1)=%v, get(2)=%v", g.size(), g.get(1), g.get(2))
	}
}

// TestGroupTableSteadyStateAllocs: rebuilding a round over a key domain
// the table has seen, at a size it has held, allocates nothing. The
// batches are undersized for the pool, so recycling them is a no-op and
// the count is the table's alone (sync.Pool drops items under -race).
func TestGroupTableSteadyStateAllocs(t *testing.T) {
	pool := newBatchPool(64, nil)
	g := newGroupTable()
	var batches []record.Batch
	for i := 0; i < 4096; i += 32 {
		b := make(record.Batch, 32)
		for j := range b {
			b[j] = record.Record{A: int64((i+j)*7919) % 512, B: int64(i + j)}
		}
		batches = append(batches, b)
	}
	round := func() {
		g.reset()
		for _, b := range batches {
			g.stage(b, record.KeyA)
		}
		g.build(pool)
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("steady-state round allocates %v times, want 0", n)
	}
	if g.size() != 4096 || len(g.get(0)) != 8 {
		t.Fatalf("round lost records: size %d, group 0 has %d", g.size(), len(g.get(0)))
	}
}

// TestCombineFoldSteadyStateAllocs: once a fold has seen its key domain,
// a round over it — every record folded, every key's final call made —
// allocates nothing, on the one-record path and on the cold path alike.
func TestCombineFoldSteadyStateAllocs(t *testing.T) {
	recs := make([]record.Record, 4096)
	for i := range recs {
		recs[i] = record.Record{A: int64(i*7919) % 512, B: int64(i%5 + 1)}
	}
	var want int64
	for _, r := range recs {
		want += r.B
	}
	red := &dataflow.Node{Keys: [2]record.KeyFunc{record.KeyA}}
	var final int64
	sink := sumEmitter{&final}
	for _, c := range []struct {
		name string
		fn   dataflow.ReduceFn
	}{
		{"one-record", func(k int64, g []record.Record, out dataflow.Emitter) {
			var s int64
			for _, r := range g {
				s += r.B
			}
			out.Emit(record.Record{A: k, B: s})
		}},
		{"cold", func(k int64, g []record.Record, out dataflow.Emitter) {
			for _, r := range g {
				out.Emit(r) // keeps every record pending: a fold that never shrinks
			}
		}},
	} {
		red.Reduce = c.fn
		task := &task{}
		round := func() {
			final = 0
			f := task.combiner(red)
			for _, r := range recs {
				f.Emit(r)
			}
			f.flush(sink)
		}
		round()
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Fatalf("%s: steady-state round allocates %v times, want 0", c.name, n)
		}
		if final != want {
			t.Fatalf("%s: final calls emitted sum %d, want %d", c.name, final, want)
		}
	}
}

type sumEmitter struct{ sum *int64 }

func (e sumEmitter) Emit(r record.Record) { *e.sum += r.B }

// BenchmarkGroupTableSmallRoundAfterLarge times a 100-record round on a
// fresh table and on one that has just held a 1M-record round: reset is
// generational, so the inherited capacity must not show in the small round.
func BenchmarkGroupTableSmallRoundAfterLarge(b *testing.B) {
	small := make([]record.Record, 100)
	for i := range small {
		small[i] = record.Record{A: int64(i % 37), B: int64(i)}
	}
	for _, large := range []int{0, 1_000_000} {
		name := "fresh"
		if large > 0 {
			name = "after-1M"
		}
		b.Run(name, func(b *testing.B) {
			pool := newBatchPool(256, nil)
			g := newGroupTable()
			big := make([]record.Record, large)
			for i := range big {
				big[i] = record.Record{A: int64(i % 200_000), B: int64(i)}
			}
			fillRound(g, pool, big)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fillRound(g, pool, small)
			}
		})
	}
}
