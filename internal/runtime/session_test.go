package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

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
		res, err := sess.Run()
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

	phys, w, _ := sessionJoinPlan(t, constRecs, 2)
	e := NewExecutor(Config{Metrics: &m})
	defer e.Close()
	e.SetPlaceholder(w.ID, probe, record.KeyA, 2)

	sess := e.OpenSession(phys)
	defer sess.Close()
	const steps = 6
	for i := 0; i < steps; i++ {
		if _, err := sess.Run(); err != nil {
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
	// Steady-state supersteps reuse exchanges instead of rebuilding them.
	if s.ExchangesReused == 0 {
		t.Error("no exchange reuse across supersteps")
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
		res, err := sess.Run()
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
	if _, err := sess.Run(); err == nil {
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
		res, err := sess.Run()
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
// caches mid-session (the Unroll strategy, or re-optimization) makes the
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
		res, err := sess.Run()
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

					_, err = sess.Run()
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
					res, err := sess.Run()
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
			if _, err := sess.Run(); err != nil {
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
