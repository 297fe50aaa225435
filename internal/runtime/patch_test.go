package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// patchPlan plans cachedJoinPlan over data and shapes the join the way a
// Δ plan's edge join is shaped: the constant side is the cached build
// side, shipped by ship, and the probe side is hash-partitioned. It
// returns the plan, its placeholder, source and sink, and the join.
func patchPlan(t testing.TB, data []record.Record, par int, ship optimizer.ShipStrategy) (
	phys *optimizer.PhysPlan, w, src, sink *dataflow.Node, join *optimizer.PhysNode) {
	t.Helper()
	p, w, src, sink := cachedJoinPlan(data)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, ExpectedIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical.Contract == dataflow.MatchOp {
			join = n
		}
	}
	in := &join.Inputs[1]
	if join.Local != optimizer.LocalHashJoin || !in.Cache || in.From.Logical != src {
		t.Fatalf("join does not cache the source:\n%s", phys.Explain())
	}
	join.BuildSide = 1
	in.Ship, in.Key = ship, record.KeyA
	join.Inputs[0].Ship, join.Inputs[0].Key = optimizer.ShipPartition, record.KeyA
	return phys, w, src, sink, join
}

// patchHost is one executor of a session, hosting all partitions or — with
// a transport — its contiguous share.
type patchHost struct {
	e    *Executor
	sess *Session
	tr   *TCPTransport
}

// openPatchHosts opens phys on hosts executors meshed over loopback TCP
// (one host: no transport).
func openPatchHosts(t *testing.T, phys *optimizer.PhysPlan, hosts int) []*patchHost {
	t.Helper()
	out := make([]*patchHost, hosts)
	if hosts == 1 {
		e := NewExecutor(Config{})
		out[0] = &patchHost{e: e, sess: e.OpenSession(phys)}
		t.Cleanup(out[0].sess.Close)
		return out
	}
	place := ContiguousPlacement(phys.Parallelism, hosts)
	addrs := make([]string, hosts)
	for h := range out {
		tr := NewTCPTransport(h, place, phys.NumEdges, nil)
		addr, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		out[h], addrs[h] = &patchHost{e: NewExecutor(Config{}), tr: tr}, addr
	}
	errs := make(chan error, hosts)
	for _, h := range out {
		go func() { errs <- h.tr.ConnectPeers(addrs, 5*time.Second) }()
	}
	for range out {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range out {
		h.sess = h.e.OpenSessionOn(phys, h.tr)
		t.Cleanup(h.sess.Close)
	}
	return out
}

// runHosts runs one superstep over probes on every host at once and
// returns the sink's records, sorted.
func runHosts(t *testing.T, hosts []*patchHost, w, sink *dataflow.Node, phys *optimizer.PhysPlan, probes []record.Record) []record.Record {
	t.Helper()
	results := make([]Result, len(hosts))
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		h.e.SetPlaceholder(w.ID, probes, phys.PlaceholderKey(w.ID), phys.Parallelism)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = h.sess.Run()
		}()
	}
	wg.Wait()
	var out []record.Record
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, results[i].Records(sink.ID)...)
	}
	return sorted(out)
}

// assertSameGroups requires two tables to hold the same groups as
// multisets; order inside a group and between groups is free.
func assertSameGroups(t *testing.T, ctx string, got, want *groupTable) {
	t.Helper()
	keys := map[int64]bool{}
	got.each(func(k int64, _ []record.Record) { keys[k] = true })
	want.each(func(k int64, _ []record.Record) { keys[k] = true })
	for k := range keys {
		if g, w := sorted(got.get(k)), sorted(want.get(k)); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: group %d = %v, fresh build %v", ctx, k, g, w)
		}
	}
	if got.live() != want.live() {
		t.Fatalf("%s: %d live records, fresh build %d", ctx, got.live(), want.live())
	}
}

// TestPatchSourceMatchesRebuild patches a cached build-side table with
// random removals and additions — duplicates included — and checks after
// every patch that each hosted table holds exactly the groups a table
// built from the updated data holds, that the executor accounts exactly
// its records, that dead slots never outnumber live ones, and that the
// next superstep emits what a fresh executor over the updated data emits.
// Parallelism 4 runs two hosts, so every executor hosts a subset.
func TestPatchSourceMatchesRebuild(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, ship := range []optimizer.ShipStrategy{optimizer.ShipPartition, optimizer.ShipBroadcast} {
			t.Run(fmt.Sprintf("p%d/%s", par, ship), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(par)<<4 | int64(ship)))
				next := int64(0)
				newRec := func() record.Record {
					next++
					return record.Record{A: rng.Int63n(24), B: next}
				}
				data := make([]record.Record, 200)
				for i := range data {
					data[i] = newRec()
				}
				probes := make([]record.Record, 0, 30)
				for k := int64(-3); k < 27; k++ {
					probes = append(probes, record.Record{A: k})
				}

				phys, w, src, sink, join := patchPlan(t, data, par, ship)
				hosts := 1
				if par > 1 {
					hosts = 2
				}
				hs := openPatchHosts(t, phys, hosts)
				runHosts(t, hs, w, sink, phys, probes) // fills the caches

				for round := 0; round < 40; round++ {
					var add, remove []record.Record
					for range rng.Intn(12) {
						if i := rng.Intn(len(data) + 1); i < len(data) && rng.Intn(3) > 0 {
							remove = append(remove, data[i])
							data = slices.Delete(data, i, i+1)
						}
					}
					if round%10 == 9 { // drain a group completely
						k := rng.Int63n(24)
						for i := 0; i < len(data); {
							if data[i].A == k {
								remove = append(remove, data[i])
								data = slices.Delete(data, i, i+1)
								continue
							}
							i++
						}
					}
					for range rng.Intn(12) {
						r := newRec()
						if len(data) > 0 && rng.Intn(4) == 0 {
							r = data[rng.Intn(len(data))] // a duplicate record
						}
						add = append(add, r)
						data = append(data, r)
					}
					for _, h := range hs {
						if !h.e.PatchSource(phys, src, add, remove) {
							t.Fatalf("round %d: patch refused", round)
						}
					}

					fphys, fw, _, fsink, _ := patchPlan(t, data, par, ship)
					fresh := openPatchHosts(t, fphys, 1)[0]
					want := runHosts(t, []*patchHost{fresh}, fw, fsink, fphys, probes)
					for hi, h := range hs {
						for part := range par {
							s, ok := h.e.slots[slotKey{join.ID, 1, part}]
							if !ok {
								continue
							}
							ctx := fmt.Sprintf("round %d host %d partition %d", round, hi, part)
							g := s.table
							assertSameGroups(t, ctx, g, fresh.e.slots[slotKey{join.ID, 1, part}].table)
							if len(g.recs) > 2*g.live() {
								t.Fatalf("%s: %d slots for %d live records", ctx, len(g.recs), g.live())
							}
						}
					}
					if got := runHosts(t, hs, w, sink, phys, probes); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: patched superstep emitted %v, fresh executor %v", round, got, want)
					}
				}
			})
		}
	}
}

// slotState copies everything a cache slot holds, for byte-identity checks.
func slotState(s *cacheSlot) any {
	if s.table == nil {
		return []any{s.filled, slices.Clone(s.recs)}
	}
	g := s.table
	return []any{s.filled, slices.Clone(g.recs), slices.Clone(g.ext), slices.Clone(g.touched),
		slices.Clone(g.idx.keys), slices.Clone(g.idx.slots), g.dead, g.round}
}

// TestPatchSourceRefusals: every plan or state PatchSource cannot patch is
// refused with the slots and the accounting left exactly as they were.
func TestPatchSourceRefusals(t *testing.T) {
	data := []record.Record{{A: 1, B: 10}, {A: 2, B: 20}, {A: 1, B: 11}}
	probes := []record.Record{{A: 1}, {A: 2}}
	cases := []struct {
		name  string
		setup func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node)
		add   []record.Record
		rm    []record.Record
	}{
		{"never run", func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node) {
			phys, _, src, _, _ := patchPlan(t, data, 2, optimizer.ShipPartition)
			return NewExecutor(Config{}), phys, src
		}, data[:1], nil},
		{"slot not filled", func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node) {
			phys, w, src, sink, join := patchPlan(t, data, 2, optimizer.ShipPartition)
			h := openPatchHosts(t, phys, 1)
			runHosts(t, h, w, sink, phys, probes)
			e := h[0].e
			e.slots[slotKey{join.ID, 1, 1}].filled = false
			return e, phys, src
		}, data[:1], nil},
		{"sort-merge join", func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node) {
			phys, w, src, sink, join := patchPlan(t, data, 2, optimizer.ShipPartition)
			join.Local, join.SortKey = optimizer.LocalSortMergeJoin, record.KeyA
			h := openPatchHosts(t, phys, 1)
			runHosts(t, h, w, sink, phys, probes)
			return h[0].e, phys, src
		}, data[:1], nil},
		{"missing removal", func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node) {
			phys, w, src, sink, _ := patchPlan(t, data, 2, optimizer.ShipPartition)
			h := openPatchHosts(t, phys, 1)
			runHosts(t, h, w, sink, phys, probes)
			return h[0].e, phys, src
		}, data[:1], []record.Record{data[0], data[0]}},
		{"fused chain", func(t *testing.T) (*Executor, *optimizer.PhysPlan, *dataflow.Node) {
			p := dataflow.NewPlan()
			w := p.IterationPlaceholder("W", 4)
			src := p.SourceOf("const", data)
			bump := func(r record.Record, out dataflow.Emitter) {
				r.B++
				out.Emit(r)
			}
			chain := p.MapNode("bump2", p.MapNode("bump1", src, bump), bump)
			j := p.MatchNode("j", w, chain, record.KeyA, record.KeyA,
				func(l, r record.Record, out dataflow.Emitter) { out.Emit(r) })
			sink := p.SinkNode("o", j)
			phys := optimizeOrDie(t, p, optimizer.Options{Parallelism: 2, ExpectedIterations: 5, Fuse: true})
			if phys.Fused == 0 {
				t.Fatalf("nothing fused:\n%s", phys.Explain())
			}
			h := openPatchHosts(t, phys, 1)
			runHosts(t, h, w, sink, phys, probes)
			return h[0].e, phys, src
		}, data[:1], nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, phys, src := tc.setup(t)
			before := map[slotKey]any{}
			for k, s := range e.slots {
				before[k] = slotState(s)
			}
			used := e.CachedBytes()
			if e.PatchSource(phys, src, tc.add, tc.rm) {
				t.Fatal("patch accepted")
			}
			after := map[slotKey]any{}
			for k, s := range e.slots {
				after[k] = slotState(s)
			}
			if !reflect.DeepEqual(after, before) || e.CachedBytes() != used {
				t.Fatal("refused patch changed the cache")
			}
		})
	}
}

// BenchmarkGroupTablePatch times one patch of a cached 1M-record table:
// a record leaves one group and a record joins another, relocating it, so
// the amortized compaction cost is included.
func BenchmarkGroupTablePatch(b *testing.B) {
	pool := newBatchPool(256, nil)
	g := newGroupTable()
	recs := make([]record.Record, 1_000_000)
	for i := range recs {
		recs[i] = record.Record{A: int64(i % 200_000), B: int64(i)}
	}
	fillRound(g, pool, recs)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(recs))
		r := recs[j]
		if !g.remove(r.A, r) {
			b.Fatalf("record %v missing", r)
		}
		r.A = rng.Int63n(200_000)
		g.add(r.A, r)
		g.compactIfSparse()
		recs[j] = r
	}
}
