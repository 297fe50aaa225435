package runtime

import (
	"math/rand"
	"reflect"
	"slices"
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

// wantKeyOrder is the order contract's oracle for one round whose keys
// first arrived in firstTouch order, over index x as the round left it:
// ascending keys when x is direct and the round holds at least
// 1/probeDirectSpread of its slots, first-touch order otherwise. It
// reports which case applied.
func wantKeyOrder(firstTouch []int64, x *probeIndex) (order []int64, sorted bool) {
	order = slices.Clone(firstTouch)
	if x.direct && len(order)*probeDirectSpread >= len(x.slots) {
		slices.Sort(order)
		return order, true
	}
	return order, false
}

// TestGroupTableMatchesReference drives random record streams through
// rounds — shrinking, growing and empty ones, over key domains that move so
// keys disappear and come back — and checks every round against a
// map[int64][]Record built by appending: same groups, in-group order =
// arrival, group order = the order contract (wantKeyOrder). The same
// rounds go through a combineFold, whose final calls must follow the same
// contract. One table sees dense key domains, so its index runs direct and
// its rounds fall on both sides of the density bound; the other sees keys
// spread over 2^40 and negative ones, so its index stays hashed. Every
// case must occur.
func TestGroupTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := newBatchPool(16, nil)
	sum := &dataflow.Node{Keys: [2]record.KeyFunc{record.KeyA},
		Reduce: func(k int64, g []record.Record, out dataflow.Emitter) {
			var s int64
			for _, r := range g {
				s += r.B
			}
			out.Emit(record.Record{A: k, B: s})
		}}
	cases := map[string]int{}
	for _, sparse := range []bool{false, true} {
		g := newGroupTable()
		f := &combineFold{}
		for round := 0; round < 200; round++ {
			n := 0
			switch rng.Intn(4) {
			case 0: // empty round
			case 1:
				n = rng.Intn(8)
			default:
				n = rng.Intn(600)
			}
			base, span := int64(rng.Intn(3)*40), int64(1+rng.Intn(240))
			recs := make([]record.Record, n)
			for i := range recs {
				k := base + rng.Int63n(span)
				if sparse {
					k = rng.Int63n(1<<40) - 1<<39
				}
				recs[i] = record.Record{A: k, B: int64(i), X: float64(round)}
			}
			fillRound(g, pool, recs)

			ref := map[int64][]record.Record{}
			var firstTouch []int64
			for _, r := range recs {
				if _, ok := ref[r.A]; !ok {
					firstTouch = append(firstTouch, r.A)
				}
				ref[r.A] = append(ref[r.A], r)
			}
			order, sorted := wantKeyOrder(firstTouch, &g.idx)
			switch {
			case len(order) < 2:
			case sorted:
				cases["direct, dense"]++
			case g.idx.direct:
				cases["direct, sparse"]++
			default:
				cases["hashed"]++
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
			if !slices.Equal(gotOrder, order) {
				t.Fatalf("round %d (key order %v): group order %v, want %v", round, sorted, gotOrder, order)
			}
			if !sparse {
				for k := int64(-1); k <= 500; k++ {
					if got := g.get(k); !reflect.DeepEqual(got, ref[k]) {
						t.Fatalf("round %d: get(%d) = %v, want %v", round, k, got, ref[k])
					}
				}
			}

			f.reset(sum)
			for _, r := range recs {
				f.Emit(r)
			}
			var flushed []record.Record
			f.flush(emitCollector{buf: &flushed})
			forder, fsorted := wantKeyOrder(firstTouch, &f.idx)
			if len(flushed) != len(forder) {
				t.Fatalf("round %d: fold flushed %d keys, want %d", round, len(flushed), len(forder))
			}
			for i, r := range flushed {
				var want int64
				for _, x := range ref[forder[i]] {
					want += x.B
				}
				if r.A != forder[i] || r.B != want {
					t.Fatalf("round %d (key order %v): final call %d = %v, want key %d sum %d", round, fsorted, i, r, forder[i], want)
				}
			}
		}
	}

	// Right at the bound: every key of a direct table of 256 slots, then
	// rounds of 64 of them (a quarter of the slots: key order) and 63
	// (first touch).
	g := newGroupTable()
	for _, n := range []int{256, 64, 63} {
		recs := shuffledKeys(rng, 256)[:n]
		fillRound(g, pool, recs)
		if !g.idx.direct || len(g.idx.slots) != 256 {
			t.Fatalf("%d of 256 dense keys: direct %v over %d slots, want direct over 256", n, g.idx.direct, len(g.idx.slots))
		}
		var firstTouch, got []int64
		for _, r := range recs {
			firstTouch = append(firstTouch, r.A)
		}
		g.each(func(k int64, _ []record.Record) { got = append(got, k) })
		if want, sorted := wantKeyOrder(firstTouch, &g.idx); sorted != (n >= 64) || !slices.Equal(got, want) {
			t.Fatalf("%d of 256 keys: key order %v, group order %v, want %v", n, sorted, got, want)
		}
	}

	for _, c := range []string{"direct, dense", "direct, sparse", "hashed"} {
		if cases[c] == 0 {
			t.Errorf("no round of case %q: %v", c, cases)
		}
	}
	t.Logf("rounds per case: %v", cases)
}

// shuffledKeys returns one record for each key in [0, n), shuffled.
func shuffledKeys(rng *rand.Rand, n int) []record.Record {
	recs := make([]record.Record, n)
	for i, k := range rng.Perm(n) {
		recs[i] = record.Record{A: int64(k), B: int64(i)}
	}
	return recs
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
