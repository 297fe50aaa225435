package iterative_test

// External test package: adaptive execution is exercised against the real
// Connected Components dataflows from internal/algorithms, which imports
// iterative.

import (
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// autoCCSpec assembles the AutoSpec both engines can execute: the
// Match-variant incremental CC (microstep-admissible) plus the bulk CC
// alternative.
func autoCCSpec(g *graphgen.Graph) (iterative.AutoSpec, []record.Record, []record.Record) {
	inc, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	bulk, bulkInit := algorithms.CCBulkSpec(g)
	return iterative.AutoSpec{Incremental: inc, Bulk: &bulk, BulkInitial: bulkInit}, s0, w0
}

// TestRunAutoMatchesReference checks the engine-choice contract: whatever
// RunAuto picks, the fixpoint equals the union-find oracle and the forced
// single-engine runs.
func TestRunAutoMatchesReference(t *testing.T) {
	g := graphgen.Uniform("auto-ref", 80, 160, 0xA070)
	oracle := algorithms.CCReference(g)

	for _, force := range []struct {
		name   string
		engine *optimizer.Engine
	}{
		{"auto", nil},
		{"bulk", enginePtr(optimizer.EngineBulk)},
		{"incremental", enginePtr(optimizer.EngineIncremental)},
	} {
		t.Run(force.name, func(t *testing.T) {
			spec, s0, w0 := autoCCSpec(g)
			spec.Force = force.engine
			res, err := iterative.RunAuto(spec, s0, w0, iterative.Config{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Engines) != 1 {
				t.Fatalf("engines = %v, want exactly one", res.Engines)
			}
			if force.engine != nil && res.Engines[0] != *force.engine {
				t.Fatalf("forced %v, ran %v", *force.engine, res.Engines[0])
			}
			got := algorithms.ComponentsToMap(res.Solution)
			for v, c := range oracle {
				if got[v] != c {
					t.Fatalf("engine %v: vertex %d -> %d, oracle %d", res.Engines, v, got[v], c)
				}
			}
			if len(res.Candidates) != 2 {
				t.Fatalf("candidates = %d, want 2", len(res.Candidates))
			}
			if res.Engines[0] == optimizer.EngineIncremental && len(res.PlannedVsObserved) != res.Supersteps {
				t.Errorf("%d planned-vs-observed records for %d supersteps",
					len(res.PlannedVsObserved), res.Supersteps)
			}
		})
	}
}

func enginePtr(e optimizer.Engine) *optimizer.Engine { return &e }

// TestRunAutoForceValidation covers the forced-engine error paths.
func TestRunAutoForceValidation(t *testing.T) {
	g := graphgen.Uniform("auto-force", 30, 60, 5)
	// No bulk alternative: forcing bulk must fail.
	inc, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	spec := iterative.AutoSpec{Incremental: inc, Force: enginePtr(optimizer.EngineBulk)}
	if _, err := iterative.RunAuto(spec, s0, w0, iterative.Config{Parallelism: 2}); err == nil {
		t.Error("forced bulk without a bulk alternative accepted")
	}
	// An engine value outside the two that exist must fail, not fall
	// through to a default.
	spec.Force = enginePtr(optimizer.Engine(2))
	if _, err := iterative.RunAuto(spec, s0, w0, iterative.Config{Parallelism: 2}); err == nil {
		t.Error("forced unknown engine accepted")
	}
}

// TestResumeMicrostep converges CC on a graph missing one bridge edge,
// then finishes over the full graph with only the bridge's candidates —
// the warm restart with direct merge required.
func TestResumeMicrostep(t *testing.T) {
	full := graphgen.Uniform("micro-resume", 80, 160, 0x30B)
	bridge := graphgen.Edge{Src: 3, Dst: 77}
	full.Edges = append(full.Edges, bridge)
	partial := &graphgen.Graph{Name: "micro-partial", NumVertices: full.NumVertices,
		Edges: full.Edges[:len(full.Edges)-1]}

	cfg := iterative.Config{Parallelism: 4}
	_, res, err := algorithms.CCIncremental(partial, algorithms.CCMatch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, _ := algorithms.CCIncrementalSpec(full, algorithms.CCMatch)
	delta := insertDeltaCC(res.Set, bridge.Src, bridge.Dst)
	warm, err := iterative.ResumeMicrostep(spec, res.Set, delta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Set != res.Set {
		t.Error("the adopted solution set was not resumed in place")
	}
	oracle := algorithms.CCReference(full)
	got := algorithms.ComponentsToMap(warm.Solution)
	for v, c := range oracle {
		if got[v] != c {
			t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
		}
	}

	// Error paths.
	if _, err := iterative.ResumeMicrostep(spec, nil, nil, cfg); err == nil {
		t.Error("nil solution set accepted")
	}
	if _, err := iterative.ResumeMicrostep(spec, res.Set, nil, iterative.Config{Parallelism: 8}); err == nil {
		t.Error("partition mismatch accepted")
	}
	// The CoGroup variant is not admissible: refused, set untouched.
	cg, _, _ := algorithms.CCIncrementalSpec(full, algorithms.CCCoGroup)
	if _, err := iterative.ResumeMicrostep(cg, res.Set, delta, cfg); err == nil ||
		!strings.Contains(err.Error(), "group-at-a-time") {
		t.Errorf("inadmissible spec: %v, want the §5.2 rejection", err)
	}
	for v, c := range algorithms.ComponentsToMap(res.Set.Snapshot()) {
		if got[v] != c {
			t.Fatalf("a refused resume modified the solution set at vertex %d", v)
		}
	}
}

// reshapingCC is incremental CC with Reoptimize on over a dense core with
// a long tail. At Parallelism 2 the cost-based planner broadcasts the
// small delta set against a stream-cached edge table; once the workset
// collapses into the tail, the greedy re-plan partitions the edge table
// instead (one real shape change), and the deeper collapse near
// convergence re-plans to that same shape (a no-op).
func reshapingCC(seed uint64) (*graphgen.Graph, iterative.IncrementalSpec, []record.Record, []record.Record) {
	g := graphgen.Uniform("reshaping", 100, 3000, seed).WithDiameterTail(30, 0)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Reoptimize = true
	return g, spec, s0, w0
}

// TestIncrementalSpecReuse is the regression test for the estimate-
// mutation bug: RunIncremental used to overwrite the shared plan node's
// EstRecords (once at entry, again on every reoptimize), so a reused spec
// silently planned run 2 with run 1's final workset size. Both runs must
// now plan identically, and the spec must come back unchanged.
func TestIncrementalSpecReuse(t *testing.T) {
	_, spec, s0, w0 := reshapingCC(42)
	origEst := spec.Workset.EstRecords

	var m metrics.Counters
	cfg := iterative.Config{Parallelism: 2, Metrics: &m}
	res1, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() == 0 {
		t.Fatalf("run did not reoptimize (supersteps=%d); the regression needs the reoptimize path",
			res1.Supersteps)
	}
	if got := spec.Workset.EstRecords; got != origEst {
		t.Fatalf("spec.Workset.EstRecords mutated: %d -> %d", origEst, got)
	}

	res2, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1, p2 := res1.Plan.Explain(), res2.Plan.Explain(); p1 != p2 {
		t.Errorf("run-2's first plan differs from run-1's:\nrun1:\n%s\nrun2:\n%s", p1, p2)
	}
	if got := spec.Workset.EstRecords; got != origEst {
		t.Errorf("spec.Workset.EstRecords mutated by run 2: %d -> %d", origEst, got)
	}
}

// TestReoptimizeCounters asserts the happy path: Reoptimizations counts
// exactly the re-plans that swapped a differently shaped plan in, each with
// a "reoptimized" trace event, while a re-plan that lands on the shape
// already running is traced but swaps — and counts — nothing. (Failures
// would land in ReoptimizeFailures; re-planning the same valid Δ cannot be
// made to fail deterministically, so the failure branch is covered by the
// counter contract only.)
func TestReoptimizeCounters(t *testing.T) {
	_, spec, s0, w0 := reshapingCC(7)

	var m metrics.Counters
	res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: 2, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() != 1 {
		t.Fatalf("Reoptimizations = %d after %d supersteps, want the one shape change", m.Reoptimizations.Load(), res.Supersteps)
	}
	if int64(res.PlanEpochs) != m.Reoptimizations.Load() {
		t.Errorf("PlanEpochs = %d, Reoptimizations = %d", res.PlanEpochs, m.Reoptimizations.Load())
	}
	if m.ReoptimizeFailures.Load() != 0 {
		t.Errorf("ReoptimizeFailures = %d, want 0", m.ReoptimizeFailures.Load())
	}
	var swaps, kept int
	for _, ev := range res.Trace.Events {
		if strings.Contains(ev.Event, "reoptimized") {
			swaps++
		}
		if strings.Contains(ev.Event, "shape unchanged") {
			kept++
		}
	}
	if int64(swaps) != m.Reoptimizations.Load() {
		t.Errorf("trace records %d reoptimizations, counter says %d", swaps, m.Reoptimizations.Load())
	}
	if kept == 0 {
		t.Errorf("no same-shape re-plan traced; events: %v", res.Trace.Events)
	}
}

// TestRunAutoHonorsReoptimize: the adaptive runner's incremental run
// must support the same mid-run re-planning as RunIncremental.
func TestRunAutoHonorsReoptimize(t *testing.T) {
	g, inc, s0, w0 := reshapingCC(11)

	var m metrics.Counters
	res, err := iterative.RunAuto(iterative.AutoSpec{Incremental: inc}, s0, w0,
		iterative.Config{Parallelism: 2, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reoptimizations.Load() == 0 {
		t.Fatalf("RunAuto ignored Reoptimize over %d supersteps", res.Supersteps)
	}
	oracle := algorithms.CCReference(g)
	got := algorithms.ComponentsToMap(res.Solution)
	for v, c := range oracle {
		if got[v] != c {
			t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
		}
	}
}

// TestBulkSpecReuse is the bulk-side counterpart: RunBulk must not leave
// the initial-solution cardinality written into the shared Input node.
func TestBulkSpecReuse(t *testing.T) {
	g := graphgen.Uniform("bulk-reuse", 40, 80, 9)
	spec, initial := algorithms.CCBulkSpec(g)
	// A zero estimate is the case RunBulk used to overwrite in place.
	spec.Input.EstRecords = 0
	origEst := spec.Input.EstRecords
	if _, err := iterative.RunBulk(spec, initial, iterative.Config{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if got := spec.Input.EstRecords; got != origEst {
		t.Errorf("spec.Input.EstRecords mutated: %d -> %d", origEst, got)
	}
}
