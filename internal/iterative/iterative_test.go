package iterative

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/record"
)

// doubler builds a minimal bulk iteration: each pass doubles every value.
func doubler() (BulkSpec, []record.Record) {
	plan := dataflow.NewPlan()
	in := plan.IterationPlaceholder("I", 4)
	m := plan.MapNode("double", in, func(r record.Record, out dataflow.Emitter) {
		r.A *= 2
		out.Emit(r)
	})
	o := plan.SinkNode("O", m)
	return BulkSpec{Plan: plan, Input: in, Output: o}, []record.Record{{A: 1}, {A: 3}}
}

func TestBulkFixedIterations(t *testing.T) {
	spec, init := doubler()
	spec.FixedIterations = 5
	res, err := RunBulk(spec, init, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	sum := int64(0)
	for _, r := range res.Solution {
		sum += r.A
	}
	if sum != (1+3)*32 {
		t.Errorf("solution sum = %d, want 128", sum)
	}
}

func TestBulkConvergedCriterion(t *testing.T) {
	// Halving converges to zero; the criterion stops when stable.
	plan := dataflow.NewPlan()
	in := plan.IterationPlaceholder("I", 2)
	m := plan.MapNode("halve", in, func(r record.Record, out dataflow.Emitter) {
		r.A /= 2
		out.Emit(r)
	})
	o := plan.SinkNode("O", m)
	spec := BulkSpec{
		Plan: plan, Input: in, Output: o,
		Converged: func(prev, next []record.Record) bool {
			var a, b int64
			for _, r := range prev {
				a += r.A
			}
			for _, r := range next {
				b += r.A
			}
			return a == b
		},
	}
	res, err := RunBulk(spec, []record.Record{{A: 1024}}, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 || res.Iterations > 12 {
		t.Errorf("iterations = %d, want ~11", res.Iterations)
	}
}

func TestBulkTerminationSink(t *testing.T) {
	// T emits a record while any value is above 10; halving stops when all
	// values are <= 10.
	plan := dataflow.NewPlan()
	in := plan.IterationPlaceholder("I", 2)
	m := plan.MapNode("halve", in, func(r record.Record, out dataflow.Emitter) {
		r.A /= 2
		out.Emit(r)
	})
	o := plan.SinkNode("O", m)
	chk := plan.FilterNode("aboveTen", m, func(r record.Record) bool { return r.A > 10 })
	tSink := plan.SinkNode("T", chk)
	spec := BulkSpec{Plan: plan, Input: in, Output: o, Termination: tSink}
	res, err := RunBulk(spec, []record.Record{{A: 100}}, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 100 -> 50 -> 25 -> 12 -> 6: four halvings above the threshold.
	if res.Iterations != 4 {
		t.Errorf("iterations = %d, want 4", res.Iterations)
	}
	if len(res.Solution) != 1 || res.Solution[0].A != 6 {
		t.Errorf("solution = %v", res.Solution)
	}
}

func TestBulkBudgetExhausted(t *testing.T) {
	spec, init := doubler()
	spec.MaxIterations = 3
	spec.Converged = func(prev, next []record.Record) bool { return false }
	_, err := RunBulk(spec, init, Config{Parallelism: 1})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

func TestBulkSpecValidation(t *testing.T) {
	if _, err := RunBulk(BulkSpec{}, nil, Config{}); err == nil {
		t.Error("empty spec must fail")
	}
}

// incrSpec builds a minimal incremental iteration: propagate minimum
// values along a ring of n vertices.
func incrSpec(n int64) (IncrementalSpec, []record.Record, []record.Record) {
	spec, s0 := admissibleSpec(n, minLabel, func(plan *dataflow.Plan) *dataflow.Node {
		edges := make([]record.Record, n)
		for i := int64(0); i < n; i++ {
			edges[i] = record.Record{A: i, B: (i + 1) % n}
		}
		return plan.SourceOf("ring", edges)
	})
	spec.Comparator = minComparator
	return spec, s0, []record.Record{{A: 1, B: 0}} // seed: vertex 1 learns value 0
}

func TestIncrementalRingPropagation(t *testing.T) {
	for _, par := range []int{1, 4} {
		spec, s0, w0 := incrSpec(16)
		res, err := RunIncremental(spec, s0, w0, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Solution {
			if r.B != 0 {
				t.Fatalf("par=%d: vertex %d kept %d", par, r.A, r.B)
			}
		}
		// The minimum walks one hop per superstep around the ring.
		if res.Supersteps < 14 {
			t.Errorf("par=%d: supersteps = %d, want >= 14", par, res.Supersteps)
		}
	}
}

func TestMicrostepRingPropagation(t *testing.T) {
	spec, s0, w0 := incrSpec(16)
	res, err := RunMicrostep(spec, s0, w0, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Solution {
		if r.B != 0 {
			t.Fatalf("vertex %d kept %d", r.A, r.B)
		}
	}
	if res.Microsteps < 15 {
		t.Errorf("microsteps = %d", res.Microsteps)
	}
}

func TestMicrostepEmptyWorkset(t *testing.T) {
	spec, s0, _ := incrSpec(4)
	res, err := RunMicrostep(spec, s0, nil, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != 4 || res.Microsteps != 0 || res.Supersteps != 0 {
		t.Errorf("empty workset: %d records, %d microsteps, %d supersteps",
			len(res.Solution), res.Microsteps, res.Supersteps)
	}
}

func TestIncrementalBudgetExhausted(t *testing.T) {
	spec, s0, w0 := incrSpec(64)
	spec.MaxSupersteps = 2
	_, err := RunIncremental(spec, s0, w0, Config{Parallelism: 2})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

func TestIncrementalSpecValidation(t *testing.T) {
	if _, err := RunIncremental(IncrementalSpec{}, nil, nil, Config{}); err == nil {
		t.Error("empty incremental spec must fail")
	}
}

func TestValidateMicrostepRejectsGroupAtATime(t *testing.T) {
	// A SolutionCoGroup (group-at-a-time) must be rejected (§5.2).
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", 8)
	upd := plan.SolutionCoGroupNode("upd", w, record.KeyA,
		func(k int64, ws []record.Record, s record.Record, found bool, out dataflow.Emitter) {})
	upd.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", upd)
	e := plan.SourceOf("E", nil)
	prop := plan.MatchNode("prop", upd, e, record.KeyA, record.KeyA,
		func(a, b record.Record, out dataflow.Emitter) {})
	w2 := plan.SinkNode("W2", prop)
	spec := IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	_, err := ValidateMicrostep(spec)
	if err == nil || !strings.Contains(err.Error(), "group-at-a-time") {
		t.Fatalf("want group-at-a-time rejection, got %v", err)
	}
}

func TestValidateMicrostepRejectsBranch(t *testing.T) {
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", 8)
	upd := plan.SolutionJoinNode("upd", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {})
	upd.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", upd)
	// Two non-delta consumers of the update: an illegal branch.
	m1 := plan.MapNode("m1", upd, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m2 := plan.MapNode("m2", upd, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	u := plan.UnionNode("u", m1, m2)
	w2 := plan.SinkNode("W2", u)
	spec := IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	_, err := ValidateMicrostep(spec)
	if err == nil || !strings.Contains(err.Error(), "branches") {
		t.Fatalf("want branch rejection, got %v", err)
	}
}

func TestValidateMicrostepRequiresKeyPreservation(t *testing.T) {
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", 8)
	// No Preserve declaration: updates might leave their partition.
	upd := plan.SolutionJoinNode("upd", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {})
	d := plan.SinkNode("D", upd)
	e := plan.SourceOf("E", nil)
	prop := plan.MatchNode("prop", upd, e, record.KeyA, record.KeyA,
		func(a, b record.Record, out dataflow.Emitter) {})
	w2 := plan.SinkNode("W2", prop)
	spec := IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	_, err := ValidateMicrostep(spec)
	if err == nil || !strings.Contains(err.Error(), "preserved") {
		t.Fatalf("want locality rejection, got %v", err)
	}
}

func TestValidateMicrostepRequiresSolutionOperator(t *testing.T) {
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", 8)
	m := plan.MapNode("m", w, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	d := plan.SinkNode("D", m)
	_ = d
	w2 := plan.SinkNode("W2", m)
	spec := IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	_, err := ValidateMicrostep(spec)
	if err == nil {
		t.Fatal("plan without a solution operator must be rejected")
	}
}

// admissibleSpec builds a minimal admissible Δ over vertices 0..n-1:
// W -> solution join (upd) -> D, and upd ⋈ constSide(plan) -> next W.
func admissibleSpec(n int64, upd dataflow.SolutionJoinFn,
	constSide func(*dataflow.Plan) *dataflow.Node) (IncrementalSpec, []record.Record) {
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", n)
	u := plan.SolutionJoinNode("upd", w, record.KeyA, upd)
	u.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", u)
	prop := plan.MatchNode("prop", u, constSide(plan), record.KeyA, record.KeyA,
		func(dr, er record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: er.B, B: dr.B})
		})
	w2 := plan.SinkNode("W2", prop)
	s0 := make([]record.Record, n)
	for i := range s0 {
		s0[i] = record.Record{A: int64(i), B: int64(i)}
	}
	return IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}, s0
}

func minLabel(c, s record.Record, found bool, out dataflow.Emitter) {
	if found && c.B < s.B {
		out.Emit(record.Record{A: c.A, B: c.B})
	}
}

func minComparator(a, b record.Record) int {
	switch {
	case a.B < b.B:
		return 1
	case a.B > b.B:
		return -1
	}
	return 0
}

// TestMicrostepConstantSideAnyContract: the constant input of the Match
// is evaluated by the runtime like any other loop-invariant subtree, so
// an admissible Δ may build it with any contract — here a CoGroup and a
// Cross over two sources — and must agree with RunIncremental.
func TestMicrostepConstantSideAnyContract(t *testing.T) {
	const n = 12
	path := func(plan *dataflow.Plan) (from, to *dataflow.Node) {
		var a, b []record.Record
		for i := int64(0); i+1 < n; i++ {
			a = append(a, record.Record{A: i, B: i})     // (edge id, src)
			b = append(b, record.Record{A: i, B: i + 1}) // (edge id, dst)
		}
		return plan.SourceOf("from", a), plan.SourceOf("to", b)
	}
	sides := map[string]func(*dataflow.Plan) *dataflow.Node{
		"cogroup": func(plan *dataflow.Plan) *dataflow.Node {
			from, to := path(plan)
			return plan.CoGroupNode("edges", from, to, record.KeyA, record.KeyA,
				func(k int64, l, r []record.Record, out dataflow.Emitter) {
					for _, f := range l {
						for _, d := range r {
							out.Emit(record.Record{A: f.B, B: d.B})
						}
					}
				})
		},
		"cross": func(plan *dataflow.Plan) *dataflow.Node {
			from, to := path(plan)
			return plan.CrossNode("edges", from, to,
				func(f, d record.Record, out dataflow.Emitter) {
					if f.A == d.A {
						out.Emit(record.Record{A: f.B, B: d.B})
					}
				})
		},
	}
	for name, side := range sides {
		for _, par := range []int{1, 3} {
			run := func(f func(IncrementalSpec, []record.Record, []record.Record, Config) (*IncrementalResult, error)) []record.Record {
				spec, s0 := admissibleSpec(n, minLabel, side)
				spec.Comparator = minComparator
				res, err := f(spec, s0, []record.Record{{A: 1, B: 0}}, Config{Parallelism: par})
				if err != nil {
					t.Fatalf("%s/p%d: %v", name, par, err)
				}
				sort.Slice(res.Solution, func(i, j int) bool { return res.Solution[i].A < res.Solution[j].A })
				return res.Solution
			}
			micro, inc := run(RunMicrostep), run(RunIncremental)
			if len(micro) != n {
				t.Fatalf("%s/p%d: %d records", name, par, len(micro))
			}
			for i := range micro {
				if micro[i] != inc[i] || micro[i].B != 0 {
					t.Fatalf("%s/p%d: vertex %d: microstep %v, incremental %v, want label 0",
						name, par, i, micro[i], inc[i])
				}
			}
		}
	}
}

// pingPong is an admissible Δ that never converges: no comparator, an
// update that always changes the record, and two vertices handing it back
// and forth.
func pingPong() (IncrementalSpec, []record.Record, []record.Record) {
	spec, s0 := admissibleSpec(2,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			out.Emit(record.Record{A: c.A, B: c.B + 1})
		},
		func(plan *dataflow.Plan) *dataflow.Node {
			return plan.SourceOf("E", []record.Record{{A: 0, B: 1}, {A: 1, B: 0}})
		})
	return spec, s0, []record.Record{{A: 0, B: 7}}
}

// TestMicrostepBudgetExhausted: a microstep run is bounded by
// MaxSupersteps like every other run.
func TestMicrostepBudgetExhausted(t *testing.T) {
	spec, s0, w0 := pingPong()
	spec.MaxSupersteps = 5
	res, err := RunMicrostep(spec, s0, w0, Config{Parallelism: 2})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	if res == nil || res.Supersteps != 5 {
		t.Fatalf("partial result = %+v, want 5 supersteps", res)
	}
}

// TestMicrostepUDFPanicIsAnError: a panicking UDF fails the run with an
// error naming the task; it must not take the process down.
func TestMicrostepUDFPanicIsAnError(t *testing.T) {
	spec, s0 := admissibleSpec(4,
		func(c, s record.Record, found bool, out dataflow.Emitter) { panic("boom") },
		func(plan *dataflow.Plan) *dataflow.Node { return plan.SourceOf("E", nil) })
	_, err := RunMicrostep(spec, s0, []record.Record{{A: 1, B: 0}}, Config{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "upd") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want an error naming task upd and the panic, got %v", err)
	}
}

func TestMicrostepWithPreMapStage(t *testing.T) {
	// A Map between W and the solution join must compile and run.
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", 8)
	pre := plan.MapNode("shift", w, func(r record.Record, out dataflow.Emitter) {
		out.Emit(r) // identity, but exercises the pre-stage path
	})
	upd := plan.SolutionJoinNode("upd", pre, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if found && c.B < s.B {
				out.Emit(record.Record{A: c.A, B: c.B})
			}
		})
	upd.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", upd)
	edges := []record.Record{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}
	e := plan.SourceOf("E", edges)
	prop := plan.MatchNode("prop", upd, e, record.KeyA, record.KeyA,
		func(dr, er record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: er.B, B: dr.B})
		})
	w2 := plan.SinkNode("W2", prop)
	spec := IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	s0 := []record.Record{{A: 0, B: 0}, {A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	w0 := []record.Record{{A: 1, B: 0}}
	res, err := RunMicrostep(spec, s0, w0, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range res.Solution {
		got[r.A] = r.B
	}
	// 0 should chain down the path 1 -> 2 -> 3.
	if got[1] != 0 || got[2] != 0 || got[3] != 0 {
		t.Errorf("chain propagation failed: %v", got)
	}
}

func TestBulkUnrolledMatchesFeedback(t *testing.T) {
	spec, init := doubler()
	spec.FixedIterations = 6
	feedback, err := RunBulk(spec, init, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec2, init2 := doubler()
	spec2.FixedIterations = 6
	spec2.Unroll = true
	unrolled, err := RunBulk(spec2, init2, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(rs []record.Record) int64 {
		var s int64
		for _, r := range rs {
			s += r.A
		}
		return s
	}
	if sum(feedback.Solution) != sum(unrolled.Solution) {
		t.Errorf("unrolled (%d) != feedback (%d)", sum(unrolled.Solution), sum(feedback.Solution))
	}
}

func TestIncrementalReoptimizeKeepsResult(t *testing.T) {
	// A long chain forces the workset to collapse from |E| to 1, which
	// triggers mid-run re-planning; the fixpoint must be unchanged.
	const n = 64
	run := func(reopt bool) map[int64]int64 {
		spec, s0, w0 := incrSpec(n)
		spec.Reoptimize = reopt
		res, err := RunIncremental(spec, s0, w0, Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := map[int64]int64{}
		for _, r := range res.Solution {
			out[r.A] = r.B
		}
		return out
	}
	plain := run(false)
	reopt := run(true)
	for v, c := range plain {
		if reopt[v] != c {
			t.Fatalf("reoptimized run diverged at vertex %d: %d vs %d", v, reopt[v], c)
		}
	}
}

// TestMicrostepTracePerSuperstep: CollectTrace under RunMicrostep yields
// one IterationStat per superstep, like any incremental run.
func TestMicrostepTracePerSuperstep(t *testing.T) {
	spec, s0, w0 := incrSpec(64)
	var m metrics.Counters
	res, err := RunMicrostep(spec, s0, w0, Config{Parallelism: 2, Metrics: &m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != 64 {
		t.Fatalf("solution size %d", len(res.Solution))
	}
	if got := res.Trace.NumIterations(); got != res.Supersteps || got == 0 {
		t.Fatalf("trace has %d iterations for %d supersteps", got, res.Supersteps)
	}
	if got := m.Snapshot().WorksetElements; got != res.Microsteps {
		t.Errorf("WorksetElements = %d, Microsteps = %d", got, res.Microsteps)
	}
}
