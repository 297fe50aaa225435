package runtime

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// sessionJoinPlan builds a placeholder ⋈ constant plan and optimizes it
// for an iterative run, so the constant side is cached.
func sessionJoinPlan(t *testing.T, constRecs []record.Record, par int) (*optimizer.PhysPlan, *dataflow.Node, *dataflow.Node) {
	t.Helper()
	p, w, _, sink := cachedJoinPlan(constRecs)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, ExpectedIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	return phys, w, sink
}

func TestSessionRunRepeatedlyMatchesOneShot(t *testing.T) {
	constRecs := []record.Record{{A: 1, B: 10}, {A: 2, B: 20}, {A: 3, B: 30}}
	probe := []record.Record{{A: 1}, {A: 2}, {A: 3}}

	phys, w, sink := sessionJoinPlan(t, constRecs, 2)
	e := NewExecutor(Config{})
	defer e.Close()
	e.SetPlaceholder(w.ID, probe, record.KeyA, 2)

	sess := e.OpenSession(phys)
	defer sess.Close()
	for step := 0; step < 4; step++ {
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := sorted(res.Records(sink.ID))
		if len(got) != 3 || got[0].B != 10 || got[1].B != 20 || got[2].B != 30 {
			t.Fatalf("step %d: %v", step, got)
		}
	}
}

func TestSessionReusesWorkersAndExchanges(t *testing.T) {
	var m metrics.Counters
	constRecs := []record.Record{{A: 1, B: 10}, {A: 2, B: 20}}
	probe := []record.Record{{A: 1}, {A: 2}}

	// W → j is borrowed and byB → o goes into the sink, so the steady
	// state's one exchange is j's shuffle to byB.
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 4)
	j := p.MatchNode("j", w, p.SourceOf("const", constRecs), record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: l.A, B: r.B}) })
	byB := p.ReduceNode("byB", j, record.KeyB, func(k int64, g []record.Record, out dataflow.Emitter) {
		out.Emit(record.Record{A: k, B: int64(len(g))})
	})
	p.SinkNode("o", byB)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 2, ExpectedIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(Config{Metrics: &m})
	defer e.Close()
	e.SetPlaceholder(w.ID, probe, record.KeyA, 2)

	sess := e.OpenSession(phys)
	defer sess.Close()
	const steps = 6
	for i := 0; i < steps; i++ {
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	// Workers are spawned once per (node, partition) at session open, not
	// once per superstep.
	want := int64(len(phys.Nodes) * 2)
	if s.WorkersSpawned != want {
		t.Errorf("WorkersSpawned = %d, want %d (one per node×partition)", s.WorkersSpawned, want)
	}
	// Steady-state supersteps reuse the shuffle's exchange instead of
	// rebuilding it, and set up no other.
	if s.ExchangesReused != steps-1 {
		t.Errorf("ExchangesReused = %d, want %d (j's shuffle, after the first superstep):\n%s",
			s.ExchangesReused, steps-1, phys.Explain())
	}
	// Batches cycle through the pool; far more are recycled than
	// allocated once the session is warm.
	if s.BatchesRecycled == 0 {
		t.Error("no batch recycling across supersteps")
	}
	if s.BatchesAllocated > s.BatchesRecycled {
		t.Errorf("pool not effective: %d allocated vs %d recycled",
			s.BatchesAllocated, s.BatchesRecycled)
	}
}

// TestSessionStopsFeedingCacheSatisfiedEdge pins down a schedule subtlety:
// when a producer stays live (here: it also feeds an always-live constant
// sink) but its edge into the dynamic path has gone cache-satisfied, the
// producer must stop shipping into that edge's exchange. Observable via
// RecordsShipped: the partitioned join input is shipped in superstep 1
// only.
func TestSessionStopsFeedingCacheSatisfiedEdge(t *testing.T) {
	var m metrics.Counters
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 4)
	c := p.SourceOf("const", []record.Record{{A: 1, B: 10}, {A: 2, B: 20}})
	j := p.MatchNode("j", w, c, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: l.A, B: r.B})
		})
	dynSink := p.SinkNode("dyn", j)
	constSink := p.SinkNode("raw", c) // keeps the source live every superstep
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 2, ExpectedIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	cached := false
	for _, n := range phys.Nodes {
		for _, edge := range n.Inputs {
			cached = cached || edge.Cache
		}
	}
	if !cached {
		t.Skip("optimizer chose a plan without a cached edge")
	}

	e := NewExecutor(Config{Metrics: &m})
	defer e.Close()
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}, {A: 2}}, record.KeyA, 2)
	sess := e.OpenSession(phys)
	defer sess.Close()

	var shippedPerStep []int64
	for step := 0; step < 3; step++ {
		before := m.Snapshot()
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(res.Records(dynSink.ID)); len(got) != 2 || got[0].B != 10 || got[1].B != 20 {
			t.Fatalf("step %d: dyn sink %v", step, got)
		}
		if got := res.Records(constSink.ID); len(got) != 2 {
			t.Fatalf("step %d: const sink %v", step, got)
		}
		shippedPerStep = append(shippedPerStep, m.Snapshot().Sub(before).RecordsShipped)
	}
	// Superstep 1 ships the constant side into the cache; later
	// supersteps must not re-ship it even though the source stays live.
	if shippedPerStep[1] >= shippedPerStep[0] || shippedPerStep[1] != shippedPerStep[2] {
		t.Fatalf("shipping did not settle after cache fill: %v", shippedPerStep)
	}
}

func TestSessionRunAfterCloseFails(t *testing.T) {
	phys, w, _ := sessionJoinPlan(t, []record.Record{{A: 1, B: 1}}, 1)
	e := NewExecutor(Config{})
	defer e.Close()
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}}, record.KeyA, 1)
	sess := e.OpenSession(phys)
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Run(context.Background()); err == nil {
		t.Fatal("Run on a closed session must fail")
	}
}

// TestSessionSpilledCacheAcrossSupersteps: a loop-invariant sort-merge
// input, cached in sorted order in superstep 1, must be re-read — not
// recomputed, re-sorted or corrupted — by the same persistent workers in
// every later superstep. Stream caches stay in memory (they no longer
// spill); the name is kept so the test's history stays traceable. The
// constant side arrives in descending key order, so a cache that lost its
// sort would miss join rows.
func TestSessionSpilledCacheAcrossSupersteps(t *testing.T) {
	const n = 400
	constRecs := make([]record.Record, n)
	for i := range constRecs {
		k := n - 1 - i
		constRecs[i] = record.Record{A: int64(k), B: int64(k * 7)}
	}
	probe := make([]record.Record, n)
	for i := range probe {
		probe[i] = record.Record{A: int64(i)}
	}

	p, w, _, sink := cachedJoinPlan(constRecs)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 2, ExpectedIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Force the cached constant side through the sort-merge path so the
	// cache is a sorted record slice rather than a hash table.
	for _, pn := range phys.Nodes {
		if pn.Logical.Contract == dataflow.MatchOp {
			pn.Local = optimizer.LocalSortMergeJoin
			pn.SortKey = record.KeyA
		}
	}

	e := NewExecutor(Config{})
	defer e.Close()
	e.SetPlaceholder(w.ID, probe, record.KeyA, 2)
	sess := e.OpenSession(phys)
	defer sess.Close()

	for step := 0; step < 3; step++ {
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
		got := sorted(res.Records(sink.ID))
		if len(got) != n {
			t.Fatalf("superstep %d: %d joined rows, want %d", step, len(got), n)
		}
		for i, r := range got {
			if r.A != int64(i) || r.B != int64(i*7) {
				t.Fatalf("superstep %d: corrupted row %d: %v", step, i, r)
			}
		}
	}
}

// TestSessionInvalidateCachesRewires checks that dropping the executor's
// caches mid-session (a live view's fold, or re-optimization) makes the
// session rebuild its wiring instead of replaying stale slots.
func TestSessionInvalidateCachesRewires(t *testing.T) {
	constRecs := []record.Record{{A: 1, B: 10}, {A: 2, B: 20}}
	phys, w, sink := sessionJoinPlan(t, constRecs, 2)
	e := NewExecutor(Config{})
	defer e.Close()
	e.SetPlaceholder(w.ID, []record.Record{{A: 1}, {A: 2}}, record.KeyA, 2)
	sess := e.OpenSession(phys)
	defer sess.Close()

	for step := 0; step < 4; step++ {
		if step == 2 {
			e.Close()
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := sorted(res.Records(sink.ID))
		if len(got) != 2 || got[0].B != 10 || got[1].B != 20 {
			t.Fatalf("step %d after invalidate: %v", step, got)
		}
	}
}

var lanes = []struct {
	name   string
	serial bool
}{{"serial", true}, {"parallel", false}}

// wedgeCase is a plan whose UDF panics on the record {A: 1, B: 3} while
// boom is set.
type wedgeCase struct {
	name  string
	opts  optimizer.Options
	build func(boom *bool) (p *dataflow.Plan, w, sink *dataflow.Node)
	key   record.KeyFunc // placeholder split; nil = contiguous
	want  string         // the failed superstep's error
	after []record.Record
}

var wedgeCases = []wedgeCase{{
	name: "map",
	opts: optimizer.Options{Parallelism: 2},
	build: func(boom *bool) (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
		p := dataflow.NewPlan()
		w := p.IterationPlaceholder("W", 2)
		mapped := p.MapNode("boom", w, func(r record.Record, out dataflow.Emitter) {
			if *boom && r.A == 1 && r.B == 3 {
				panic("kaboom")
			}
			out.Emit(r)
		})
		return p, w, p.SinkNode("o", mapped)
	},
	key:   record.KeyA,
	want:  fmt.Sprintf("runtime: task boom[%d] panicked: kaboom", record.PartitionOf(1, 2)),
	after: []record.Record{{A: 1, B: 1}, {A: 1, B: 3}, {A: 2, B: 1}, {A: 2, B: 1}},
}, {
	// The combine UDF fails inside the placeholder it was fused into: the
	// error names the fused node. The contiguous split puts {1,1} and
	// {1,3} in partition 0, whose fold of the two panics.
	name: "fused-combiner",
	opts: optimizer.Options{Parallelism: 2, Fuse: true},
	build: func(boom *bool) (*dataflow.Plan, *dataflow.Node, *dataflow.Node) {
		p := dataflow.NewPlan()
		w := p.IterationPlaceholder("W", 1000)
		red := p.ReduceNode("sum", w, record.KeyA, func(k int64, g []record.Record, out dataflow.Emitter) {
			var s int64
			for _, r := range g {
				if *boom && r.A == 1 && r.B == 3 {
					panic("kaboom")
				}
				s += r.B
			}
			out.Emit(record.Record{A: k, B: s})
		})
		red.Combinable = true
		red.EstRecords = 2
		return p, w, p.SinkNode("o", red)
	},
	want:  "runtime: task W+sum-combine[0] panicked: kaboom",
	after: []record.Record{{A: 1, B: 4}, {A: 2, B: 2}},
}}

// TestSessionErrorDoesNotWedgeWorkers: a panicking UDF — an operator's, or
// a combiner's fused into its producer — must surface as the same wrapped
// task error on either lane, leave every exchange closed (no consumer can
// be left waiting on it), and leave the session usable for the next
// superstep (exchanges reset cleanly).
func TestSessionErrorDoesNotWedgeWorkers(t *testing.T) {
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			defer ForceLane(func() bool { return lane.serial })()
			for _, c := range wedgeCases {
				t.Run(c.name, func(t *testing.T) {
					boom := true
					p, w, sink := c.build(&boom)
					phys, err := optimizer.Optimize(p, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					e := NewExecutor(Config{})
					defer e.Close()
					e.SetPlaceholder(w.ID, []record.Record{{A: 1, B: 1}, {A: 1, B: 3}, {A: 2, B: 1}, {A: 2, B: 1}}, c.key, 2)
					sess := e.OpenSession(phys)
					defer sess.Close()

					_, err = sess.Run(context.Background())
					if err == nil || err.Error() != c.want {
						t.Fatalf("Run error = %v, want %q\n%s", err, c.want, phys.Explain())
					}
					for _, ex := range sess.active {
						for part, q := range ex.queues {
							if !q.closed {
								t.Errorf("exchange %d queue %d left open after the failed superstep", ex.id, part)
							}
						}
					}
					boom = false
					res, err := sess.Run(context.Background())
					if err != nil {
						t.Fatalf("session wedged after error: %v", err)
					}
					if got := sorted(res.Records(sink.ID)); !reflect.DeepEqual(got, c.after) {
						t.Fatalf("post-error superstep = %v, want %v", got, c.after)
					}
				})
			}
		})
	}
}

// spanLog is a TraceSink that keeps every span.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (l *spanLog) RecordSpan(s obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// TestLaneSpansMatch: a traced run emits one operator span per live (node,
// partition, step) and one superstep span per step on either lane.
func TestLaneSpansMatch(t *testing.T) {
	type spanKey struct {
		phase      obs.Phase
		label      string
		part, step int32
	}
	var perLane []map[spanKey]int
	for _, lane := range lanes {
		restore := ForceLane(func() bool { return lane.serial })
		log := &spanLog{}
		phys, w, _ := sessionJoinPlan(t, []record.Record{{A: 1, B: 10}, {A: 2, B: 20}}, 2)
		e := NewExecutor(Config{Trace: log, TraceLabel: "run"})
		e.SetPlaceholder(w.ID, []record.Record{{A: 1}, {A: 2}}, record.KeyA, 2)
		sess := e.OpenSession(phys)
		for step := 0; step < 3; step++ { // step 0 fills the cache; later steps run fewer tasks
			if _, err := sess.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		sess.Close()
		e.Close()
		restore()
		got := make(map[spanKey]int)
		for _, s := range log.spans {
			got[spanKey{s.Phase, s.Label, s.Part, s.Step}]++
		}
		if n := got[spanKey{obs.PhaseSuperstep, "run", -1, 2}]; n != 1 {
			t.Fatalf("%s lane: %d superstep spans for step 2, want 1", lane.name, n)
		}
		perLane = append(perLane, got)
	}
	if !reflect.DeepEqual(perLane[0], perLane[1]) {
		t.Fatalf("spans differ between lanes:\nserial   %v\nparallel %v", perLane[0], perLane[1])
	}
}

func TestSetPlaceholderZeroParallelism(t *testing.T) {
	// A zero-value Config must not panic SetPlaceholder (it clamps to 1).
	e := NewExecutor(Config{})
	defer e.Close()
	e.SetPlaceholder(0, []record.Record{{A: 1}, {A: 2}}, nil, 0)
	if parts := e.Placeholder[0]; len(parts) != 1 || len(parts[0]) != 2 {
		t.Fatalf("clamped placeholder wrong: %v", parts)
	}
	e.SetPlaceholder(1, []record.Record{{A: 3}}, record.KeyA, -4)
	if parts := e.Placeholder[1]; len(parts) != 1 || len(parts[0]) != 1 {
		t.Fatalf("keyed clamped placeholder wrong: %v", parts)
	}
}

func TestBatchPoolRecycles(t *testing.T) {
	var m metrics.Counters
	p := newBatchPool(4, &m)
	b := p.get()
	b = append(b, record.Record{A: 1})
	p.put(b)
	b2 := p.get()
	if len(b2) != 0 || cap(b2) < 4 {
		t.Fatalf("recycled batch wrong: len=%d cap=%d", len(b2), cap(b2))
	}
	// Undersized foreign batches are rejected.
	p.put(make(record.Batch, 0, 1))
	s := m.Snapshot()
	if s.BatchesRecycled != 1 {
		t.Fatalf("BatchesRecycled = %d, want 1", s.BatchesRecycled)
	}
}

// TestBorrowedPlaceholderUntouched: a consumer reads a plain placeholder's
// partition in place, so it must neither pool nor change it. Each
// superstep feeds the sink's partitions back as the next placeholder, as
// the bulk driver does; every superstep's partitions, held across the
// supersteps after it, must come out bit for bit as they went in. The
// first partition holds exactly exchangeBatch records in a slice of that
// capacity, which batchPool.put would take. The placeholder feeds the
// probe side of a join (W → j, borrowed) and, at Parallelism 1, the group
// table of a Reduce (W → r); j's shuffle to byB cycles pooled batches.
func TestBorrowedPlaceholderUntouched(t *testing.T) {
	const keys = exchangeBatch + 40
	constRecs := make([]record.Record, keys)
	for k := range constRecs {
		constRecs[k] = record.Record{A: int64(k), B: 1}
	}
	for _, par := range []int{1, 2} {
		for _, serial := range []bool{true, false} {
			p := dataflow.NewPlan()
			w := p.IterationPlaceholder("W", keys)
			j := p.MatchNode("j", w, p.SourceOf("const", constRecs), record.KeyA, record.KeyA,
				func(l, r record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: l.A, B: l.B + r.B}) })
			count := func(k int64, g []record.Record, out dataflow.Emitter) {
				out.Emit(record.Record{A: k, B: int64(len(g))})
			}
			o := p.SinkNode("o", j)
			r := p.ReduceNode("r", w, record.KeyA, count)
			p.SinkNode("oB", p.ReduceNode("byB", j, record.KeyB, count))
			p.SinkNode("oR", r)
			phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, ExpectedIterations: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range phys.Nodes {
				if (n.Logical == j || n.Logical == r && par == 1) && !borrowed(n, &n.Inputs[0], par) {
					t.Fatalf("P%d: %s does not borrow W:\n%s", par, n.Name(), phys.Explain())
				}
			}

			t.Cleanup(ForceLane(func() bool { return serial }))
			e := NewExecutor(Config{})
			sess := e.OpenSession(phys)
			parts := [][]record.Record{make([]record.Record, 0, exchangeBatch), nil}
			for k := range int64(keys) {
				i := min(k/exchangeBatch, 1)
				parts[i] = append(parts[i], record.Record{A: k, B: k})
			}
			var held, want [][][]record.Record
			for step := 0; step < 5; step++ {
				e.SetPlaceholderParts(w.ID, parts[:par])
				held = append(held, parts)
				want = append(want, [][]record.Record{slices.Clone(parts[0]), slices.Clone(parts[1])})
				res, err := sess.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				parts = append(res[o.ID], nil)[:2]
			}
			sess.Close()
			for step := range held {
				for i := range held[step][:par] {
					if !slices.Equal(held[step][i], want[step][i]) {
						t.Fatalf("P%d serial=%v: superstep %d's placeholder partition %d changed after it was read",
							par, serial, step, i)
					}
				}
			}
		}
	}
}

// borrowedSourcePlan is j = W ⋈ C on A, cached on C, with j's results in
// sink o and, through a Reduce byB that shuffles pooled batches, in oB. j
// runs with the given local strategy and build side, and both its edges
// are forced to hash-partition at Parallelism 1 and forward at > 1, so C's
// edge is borrowed either way.
func borrowedSourcePlan(t *testing.T, data []record.Record, par int, local optimizer.LocalStrategy, build int) (
	phys *optimizer.PhysPlan, w, c, o *dataflow.Node, jn *optimizer.PhysNode) {
	t.Helper()
	p := dataflow.NewPlan()
	w = p.IterationPlaceholder("W", 4)
	c = p.SourceOf("C", data)
	j := p.MatchNode("j", w, c, record.KeyA, record.KeyA,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: l.A, B: r.B}) })
	o = p.SinkNode("o", j)
	p.SinkNode("oB", p.ReduceNode("byB", j, record.KeyB, func(k int64, g []record.Record, out dataflow.Emitter) {
		out.Emit(record.Record{A: k, B: int64(len(g))})
	}))
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, ExpectedIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range phys.Nodes {
		if n.Logical == j {
			jn = n
		}
	}
	jn.Local, jn.BuildSide = local, build
	ship, key := optimizer.ShipPartition, record.KeyFunc(record.KeyA) // as PatchSource needs
	if par > 1 {
		ship, key = optimizer.ShipForward, nil
	}
	for i := range jn.Inputs {
		jn.Inputs[i].Ship, jn.Inputs[i].Key = ship, key
	}
	if e := &jn.Inputs[1]; !e.Cache || e.From.Logical != c || !borrowed(jn, e, par) {
		t.Fatalf("P%d: %s does not borrow C:\n%s", par, jn.Name(), phys.Explain())
	}
	return phys, w, c, o, jn
}

// overlaps reports whether two slices share any backing memory.
func overlaps(a, b []record.Record) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(record.Record{})
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// TestBorrowedSourceUntouched: a cached edge out of a plain Source on which
// no record changes partition is read in place, so its consumer must never
// write, pool or own a part of Source.Data. j = W ⋈ C holds C as each kind
// of cached consumer — a hash-join build, a sorted consume (sort-merge
// join) and a stream replay (the probe side) — at Parallelism 1 and, on
// forward edges with every partition of W holding all of W, at
// Parallelism 2, on both lanes; so every result is the join of W with C.
// C's shares are slices batchPool.put would take. C.Data must come out
// bit for bit as it went in after every superstep and after a PatchSource,
// which must leave the table's recs apart from it; no batch the pool holds
// may be part of it; and once Data is replaced and the caches dropped, the
// next superstep must read the new records.
func TestBorrowedSourceUntouched(t *testing.T) {
	const n = 2 * exchangeBatch
	source := func(base int64) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{A: int64(i % 97), B: base + int64(i)}
		}
		return recs
	}
	ws := []record.Record{{A: 1}, {A: 5}, {A: 96}}
	join := func(c []record.Record) []record.Record {
		var out []record.Record
		for _, l := range ws {
			for _, r := range c {
				if l.A == r.A {
					out = append(out, record.Record{A: l.A, B: r.B})
				}
			}
		}
		return sorted(out)
	}
	kinds := []struct {
		name  string
		local optimizer.LocalStrategy
		build int
	}{
		{"build", optimizer.LocalHashJoin, 1},
		{"consume", optimizer.LocalSortMergeJoin, 0},
		{"stream", optimizer.LocalHashJoin, 0},
	}
	for _, par := range []int{1, 2} {
		for _, k := range kinds {
			for _, serial := range []bool{true, false} {
				name := fmt.Sprintf("P%d %s serial=%v", par, k.name, serial)
				data := source(0)
				want := slices.Clone(data)
				phys, w, c, o, jn := borrowedSourcePlan(t, data, par, k.local, k.build)
				t.Cleanup(ForceLane(func() bool { return serial }))
				var m metrics.Counters
				e := NewExecutor(Config{Metrics: &m})
				e.SetPlaceholderParts(w.ID, [][]record.Record{ws, ws}[:par])
				sess := e.OpenSession(phys)
				step := func(c []record.Record) {
					t.Helper()
					res, err := sess.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if got := sorted(res.Records(o.ID)); !slices.Equal(got, join(c)) {
						t.Fatalf("%s: the join read %d records, want %d", name, len(got), len(join(c)))
					}
					if !slices.Equal(data, want) {
						t.Fatalf("%s: Source.Data changed", name)
					}
				}
				for range 4 {
					step(data)
				}

				add, remove := []record.Record{{A: 1, B: -1}}, []record.Record{data[1]}
				patched := e.PatchSource(phys, c, add, remove)
				if patched != (par == 1 && k.name == "build") {
					t.Fatalf("%s: PatchSource = %v\n%s", name, patched, phys.Explain())
				}
				for part := range par {
					s := e.slots[slotKey{jn.ID, 1, part}]
					if s.table != nil && overlaps(s.table.recs, data) || overlaps(s.recs, data) {
						t.Fatalf("%s: partition %d's cached table aliases Source.Data", name, part)
					}
				}
				if patched {
					step(append(slices.Concat(data[:1], data[2:]), add...))
				} else {
					step(data)
				}

				c.Data = source(1000)
				e.Close()
				step(c.Data)
				step(c.Data)
				sess.Close()
				for before := m.BatchesAllocated.Load(); m.BatchesAllocated.Load() == before; {
					if b := sess.pool.get(); overlaps(b, data) || overlaps(b, c.Data) {
						t.Fatalf("%s: a pooled batch is part of Source.Data", name)
					}
				}
			}
		}
	}
}

// TestBorrowedSourceLane: a borrowed Source's share counts toward the lane
// rule only while its cache slot is unfilled. The build side of j holds
// four times serialLaneRecords records and W three, so the superstep that
// fills the cache must take the parallel lane and every one after it the
// serial lane, at Parallelism 1 and on a forward edge at Parallelism 2.
func TestBorrowedSourceLane(t *testing.T) {
	data := make([]record.Record, 4*serialLaneRecords)
	for i := range data {
		data[i] = record.Record{A: int64(i), B: int64(i)}
	}
	for _, par := range []int{1, 2} {
		phys, w, _, _, jn := borrowedSourcePlan(t, data, par, optimizer.LocalHashJoin, 1)
		e := NewExecutor(Config{})
		e.SetPlaceholderParts(w.ID, [][]record.Record{{{A: 1}}, {{A: 2}}}[:par])
		sess := e.OpenSession(phys)
		for step := range 3 {
			if _, err := sess.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, tk := range sess.tasks {
				if wk := sess.workers[i]; tk.n == jn && (wk.lane == wk.labels) != (step == 0) {
					t.Fatalf("P%d superstep %d: j ran on the wrong lane (parallel: %v)", par, step, wk.lane == wk.labels)
				}
			}
		}
		sess.Close()
	}
}

// mapPlan is W → m → o at Parallelism 2, m adding 1 to B; with a sink key,
// o's input is hash-partitioned by it.
func mapPlan(t testing.TB, sinkKey record.KeyFunc) (*optimizer.PhysPlan, *dataflow.Node, *dataflow.Node) {
	t.Helper()
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", 1000)
	m := p.MapNode("m", w, func(r record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: r.A, B: r.B + 1}) })
	o := p.SinkNode("o", m)
	opt := optimizer.Options{Parallelism: 2, ExpectedIterations: 8}
	if sinkKey != nil {
		opt.SinkPartition = map[int]record.KeyFunc{o.ID: sinkKey}
	}
	phys, err := optimizer.Optimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return phys, w, o
}

// TestSessionFiresOnlyRunningWorkers: on the parallel lane a superstep
// wakes only the workers whose task does work. m borrows W, and m's writer
// fills o, so the workers of W and o must never be woken. A woken worker
// sets its lane labels first thing, so theirs must stay unset.
func TestSessionFiresOnlyRunningWorkers(t *testing.T) {
	phys, w, o := mapPlan(t, nil)
	t.Cleanup(ForceLane(func() bool { return false }))
	e := NewExecutor(Config{})
	sess := e.OpenSession(phys)
	defer sess.Close()
	in := []record.Record{{A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	for step := range 5 {
		e.SetPlaceholder(w.ID, in, record.KeyA, 2)
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(res.Records(o.ID)); len(got) != 3 || got[0].B != 2 || got[2].B != 4 {
			t.Fatalf("step %d: %v", step, got)
		}
	}
	idle := 0
	for i, tk := range sess.tasks {
		wk := sess.workers[i]
		switch {
		case !Idle(phys, tk.n) && wk.lane == nil:
			t.Errorf("%s[%d] does work but was never woken", tk.n.Name(), tk.part)
		case Idle(phys, tk.n):
			idle++
			if wk.lane != nil {
				t.Errorf("%s[%d] does no work but was woken", tk.n.Name(), tk.part)
			}
		}
	}
	if idle != 4 {
		t.Fatalf("%d idle tasks, want W's and o's two each:\n%s", idle, phys.Explain())
	}
}

// TestSessionDrainedSinkOwnsItsResult: at Parallelism 2 a sink behind a
// hash-partitioned edge drains its queue into a result sized by its last
// one. A returned result must stay as it was while later supersteps cycle
// pooled batches, and a result that shrinks from 20 000 records to 10 must
// hold exactly 10.
func TestSessionDrainedSinkOwnsItsResult(t *testing.T) {
	phys, w, o := mapPlan(t, record.KeyB)
	for _, n := range phys.Nodes {
		if n.Logical == o && intoSink(n, &n.Inputs[0], 2) {
			t.Fatalf("o is filled by its producer, not drained:\n%s", phys.Explain())
		}
	}
	input := func(n int, base int64) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{A: base + int64(i), B: base + int64(i)*7}
		}
		return recs
	}
	for _, serial := range []bool{true, false} {
		t.Cleanup(ForceLane(func() bool { return serial }))
		e := NewExecutor(Config{})
		sess := e.OpenSession(phys)
		var first, want []record.Record
		for step, n := range []int{20_000, 20_000, 20_000, 10} {
			in := input(n, int64(step)<<32)
			e.SetPlaceholder(w.ID, in, record.KeyA, 2)
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := sorted(res.Records(o.ID))
			if len(got) != n {
				t.Fatalf("serial=%v step %d: %d records, want %d", serial, step, len(got), n)
			}
			for i, r := range sorted(in) {
				if got[i] != (record.Record{A: r.A, B: r.B + 1}) {
					t.Fatalf("serial=%v step %d: record %d is %v from %v", serial, step, i, got[i], r)
				}
			}
			if step == 0 {
				if first = res[o.ID][0]; len(first) == 0 {
					t.Fatal("partition 0 of the first result is empty")
				}
				want = slices.Clone(first)
			}
		}
		sess.Close()
		if !slices.Equal(first, want) {
			t.Fatalf("serial=%v: the first superstep's result changed under later ones", serial)
		}
	}
}

// BenchmarkDrainedSink: one superstep of mapPlan with o behind a
// hash-partitioned edge at Parallelism 2, so o's tasks drain their queues
// into fresh results: in a session's first superstep (first) and in a
// steady one sized like the last (steady).
func BenchmarkDrainedSink(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		in := make([]record.Record, n)
		for i := range in {
			in[i] = record.Record{A: int64(i), B: int64(i) * 7}
		}
		phys, w, _ := mapPlan(b, record.KeyB)
		b.Run(fmt.Sprintf("first/%d", n), func(b *testing.B) {
			e := NewExecutor(Config{})
			e.SetPlaceholder(w.ID, in, record.KeyA, 2)
			for range b.N {
				sess := e.OpenSession(phys)
				if _, err := sess.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
		b.Run(fmt.Sprintf("steady/%d", n), func(b *testing.B) {
			e := NewExecutor(Config{})
			e.SetPlaceholder(w.ID, in, record.KeyA, 2)
			sess := e.OpenSession(phys)
			defer sess.Close()
			for range b.N {
				if _, err := sess.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
