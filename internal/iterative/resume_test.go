package iterative_test

// External test package: warm restarts are exercised against the real
// Connected Components dataflow from internal/algorithms, which imports
// iterative (so these tests cannot live in the internal test package).

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/difftest"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

var resumeBackends = []struct {
	name string
	cfg  func(iterative.Config) iterative.Config
}{
	{"compact", func(c iterative.Config) iterative.Config { return c }},
	{"spill", func(c iterative.Config) iterative.Config { c.SolutionMemoryBudget = 16 * record.EncodedSize; return c }},
}

// openFixpoint plans spec and opens a resident fixpoint on it in one
// process, over sol (nil = an empty solution set) — how a live view opens
// its session.
func openFixpoint(t *testing.T, spec iterative.IncrementalSpec, sol *runtime.SolutionSet, cfg iterative.Config) *iterative.Fixpoint {
	t.Helper()
	phys, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := iterative.OpenFixpointOn(spec, sol, cfg, phys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// insertDeltaCC builds the workset candidates for inserting undirected
// edge (u, v) over a converged CC solution set: each endpoint proposes its
// current component id to the other.
func insertDeltaCC(sol *runtime.SolutionSet, u, v int64) []record.Record {
	cid := func(x int64) int64 {
		if r, ok := sol.Lookup(sol.PartitionFor(x), x); ok {
			return r.B
		}
		return x
	}
	return []record.Record{{A: v, B: cid(u)}, {A: u, B: cid(v)}}
}

// TestResumeIncrementalAbsorbsInsert converges CC on a graph missing one
// bridge edge, then warm-restarts a resident fixpoint that adopts the
// converged solution set, over the full graph with only the bridge's
// candidates as the working set — the path live maintenance takes. The
// resumed fixpoint must match the union-find oracle on the full graph,
// for every backend.
func TestResumeIncrementalAbsorbsInsert(t *testing.T) {
	full := graphgen.Uniform("resume-full", 80, 160, 0xBEEF)
	// The bridge connects the two halves only through this one edge.
	bridge := graphgen.Edge{Src: 5, Dst: 71}
	full.Edges = append(full.Edges, bridge)
	partial := &graphgen.Graph{Name: "resume-partial", NumVertices: full.NumVertices,
		Edges: full.Edges[:len(full.Edges)-1]}

	for _, bk := range resumeBackends {
		t.Run(bk.name, func(t *testing.T) {
			cfg := bk.cfg(iterative.Config{Parallelism: 4})

			_, res, err := algorithms.CCIncremental(partial, algorithms.CCCoGroup, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Set == nil {
				t.Fatal("IncrementalResult.Set handoff is nil")
			}
			t.Cleanup(res.Set.Reset)

			// The resumed spec's Δ plan must see the full edge set.
			spec, _, _ := algorithms.CCIncrementalSpec(full, algorithms.CCCoGroup)
			delta := insertDeltaCC(res.Set, bridge.Src, bridge.Dst)
			f := openFixpoint(t, spec, res.Set, cfg)
			defer f.Close()
			warm, err := f.Run(delta)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Set != res.Set {
				t.Error("the adopted solution set was not resumed in place")
			}
			if err := res.Set.Err(); err != nil {
				t.Fatal(err)
			}
			got := algorithms.ComponentsToMap(res.Set.Snapshot())
			oracle := difftest.CCReference(full)
			for v, c := range oracle {
				if got[v] != c {
					t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
				}
			}
		})
	}
}

// TestResumeIncrementalEmptyDelta resumes with no delta: one superstep,
// no changes, same solution.
func TestResumeIncrementalEmptyDelta(t *testing.T) {
	g := graphgen.Uniform("resume-empty", 40, 80, 7)
	_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, iterative.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	f := openFixpoint(t, spec, res.Set, iterative.Config{Parallelism: 2})
	defer f.Close()
	warm, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Supersteps != 1 {
		t.Errorf("empty delta took %d supersteps, want 1", warm.Supersteps)
	}
	if n := len(res.Set.Snapshot()); n != len(res.Solution) {
		t.Errorf("solution size changed: %d -> %d", len(res.Solution), n)
	}
}

// TestResumeIncrementalValidation covers the error path of adopting a
// solution set: its partition count must match the config.
func TestResumeIncrementalValidation(t *testing.T) {
	g := graphgen.Uniform("resume-val", 20, 40, 3)
	spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	cfg := iterative.Config{Parallelism: 4}
	phys, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sol := runtime.NewSolutionSet(2, record.KeyA, nil, nil)
	if _, err := iterative.OpenFixpointOn(spec, sol, cfg, phys, nil); err == nil {
		t.Error("partition mismatch accepted")
	}
}

// TestResumeMicrostep converges CC on a graph missing one bridge edge,
// then finishes over the full graph with only the bridge's candidates on
// the Match variant, whose Δ merges directly — the warm restart of an
// admissible spec. An inadmissible spec is refused by RunMicrostep.
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
	f := openFixpoint(t, spec, res.Set, cfg)
	defer f.Close()
	warm, err := f.Run(delta)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Set != res.Set {
		t.Error("the adopted solution set was not resumed in place")
	}
	oracle := difftest.CCReference(full)
	got := algorithms.ComponentsToMap(res.Set.Snapshot())
	for v, c := range oracle {
		if got[v] != c {
			t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
		}
	}

	// Error paths.
	phys, err := iterative.PlanIncremental(spec, iterative.Config{Parallelism: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iterative.OpenFixpointOn(spec, res.Set, iterative.Config{Parallelism: 8}, phys, nil); err == nil {
		t.Error("partition mismatch accepted")
	}
	// The CoGroup variant is not admissible: refused.
	cg, s0, w0 := algorithms.CCIncrementalSpec(full, algorithms.CCCoGroup)
	if _, err := iterative.RunMicrostep(cg, s0, w0, cfg); err == nil ||
		!strings.Contains(err.Error(), "group-at-a-time") {
		t.Errorf("inadmissible spec: %v, want the §5.2 rejection", err)
	}
}

// TestPlanIncrementalMatchesRunIncremental: with no explicit weight,
// PlanIncremental plans exactly as the run entry points do — with the
// spec's own ExpectedIterations, not a fixed default.
func TestPlanIncrementalMatchesRunIncremental(t *testing.T) {
	g := graphgen.Uniform("plan-expected", 60, 120, 0xE3)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.ExpectedIterations = 3
	cfg := iterative.Config{Parallelism: 2}

	planned, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Fingerprint() != res.Plan.Fingerprint() {
		t.Errorf("plan shapes differ:\nPlanIncremental:\n%s\nRunIncremental:\n%s", planned.Explain(), res.Plan.Explain())
	}
	if planned.Cost != res.Plan.Cost {
		t.Errorf("PlanIncremental costed %v, RunIncremental %v", planned.Cost, res.Plan.Cost)
	}
}

// TestFixpointSessionReuseAcrossRestarts checks the resident-session
// contract directly: after the cold run, warm restarts — including one
// that mutates the edge source and invalidates the constant caches — must
// not spawn any new workers, and must still converge correctly.
func TestFixpointSessionReuseAcrossRestarts(t *testing.T) {
	g := graphgen.Uniform("fixpoint-reuse", 60, 120, 0xCAFE)
	bridge := graphgen.Edge{Src: 1, Dst: 57}
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)

	var m metrics.Counters
	cfg := iterative.Config{Parallelism: 4, Metrics: &m}
	f := openFixpoint(t, spec, nil, cfg)
	defer f.Close()
	f.Solution().Init(s0)
	if _, err := f.Run(w0); err != nil {
		t.Fatal(err)
	}
	spawnedCold := m.WorkersSpawned.Load()

	// Mutate the Δ plan's edge source in place: the undirected edge table
	// gains both orientations of the bridge, and the constant caches are
	// dropped so the next superstep re-materializes them.
	var src *dataflow.Node
	for _, n := range spec.Plan.Nodes() {
		if n.Contract == dataflow.Source {
			src = n
		}
	}
	if src == nil {
		t.Fatal("no Source node in CC spec")
	}
	src.Data = append(src.Data,
		record.Record{A: bridge.Src, B: bridge.Dst},
		record.Record{A: bridge.Dst, B: bridge.Src})
	f.InvalidateConstants()

	if _, err := f.Run(insertDeltaCC(f.Solution(), bridge.Src, bridge.Dst)); err != nil {
		t.Fatal(err)
	}
	if got := m.WorkersSpawned.Load(); got != spawnedCold {
		t.Errorf("warm restart spawned workers: %d -> %d", spawnedCold, got)
	}

	withBridge := &graphgen.Graph{Name: "with-bridge", NumVertices: g.NumVertices,
		Edges: append(append([]graphgen.Edge(nil), g.Edges...), bridge)}
	oracle := difftest.CCReference(withBridge)
	got := algorithms.ComponentsToMap(f.Solution().Snapshot())
	for v, c := range oracle {
		if got[v] != c {
			t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
		}
	}
}

// peerBarrier steps a second in-process host in lockstep with the driving
// one: the two-host stand-in for a coordinator's control connection.
type peerBarrier struct {
	peer *iterative.Fixpoint
	done chan peerStep
}

type peerStep struct {
	next int
	err  error
}

func (b *peerBarrier) Release(int) error {
	go func() {
		n, err := b.peer.StepOnce()
		b.done <- peerStep{n, err}
	}()
	return nil
}

func (b *peerBarrier) Collect(_, localNext int) (int, error) {
	r := <-b.done
	return localNext + r.next, r.err
}

// ccSpecCombined is the Match-variant CC dataflow with a min-label
// combiner in front of the workset sink: same fixpoint, one more node and
// edge in the physical plan.
func ccSpecCombined(g *graphgen.Graph) iterative.IncrementalSpec {
	edgeRecs := algorithms.EdgeRecords(g.Undirected())
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", int64(len(edgeRecs)))
	delta := plan.SolutionJoinNode("updateCC", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if found && c.B < s.B {
				out.Emit(record.Record{A: c.A, B: c.B})
			}
		})
	delta.Preserve(0, record.KeyA)
	dSink := plan.SinkNode("D", delta)
	propagate := plan.MatchNode("toNeighbors", delta, plan.SourceOf("N", edgeRecs), record.KeyA, record.KeyA,
		func(d, e record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: e.B, B: d.B})
		})
	best := plan.ReduceNode("minLabel", propagate, record.KeyA,
		func(vid int64, group []record.Record, out dataflow.Emitter) {
			m := group[0].B
			for _, c := range group[1:] {
				m = min(m, c.B)
			}
			out.Emit(record.Record{A: vid, B: m})
		})
	return iterative.IncrementalSpec{
		Plan: plan, Workset: w, DeltaSink: dSink, WorksetSink: plan.SinkNode("W'", best),
		SolutionKey: record.KeyA, WorksetKey: record.KeyA, Comparator: algorithms.MinCidComparator,
	}
}

// TestFixpointRebindOverTransport re-plans a meshed two-host fixpoint onto
// a spec whose physical plan has more edges: Rebind must re-size the
// transport's per-edge routing state, or the new session's traffic has
// nowhere to land.
func TestFixpointRebindOverTransport(t *testing.T) {
	const par, hosts = 4, 2
	g := graphgen.Uniform("rebind-mesh", 60, 120, 0xFEED)
	place := runtime.ContiguousPlacement(par, hosts)
	_, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)

	var fx [hosts]*iterative.Fixpoint
	var trs [hosts]*runtime.TCPTransport
	addrs := make([]string, hosts)
	for h := range fx {
		cfg := iterative.Config{Parallelism: par, Hosts: hosts, Host: h}
		spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		phys, err := iterative.PlanIncremental(spec, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		trs[h] = runtime.NewTCPTransport(h, place, phys.NumEdges, nil)
		defer trs[h].Close()
		if addrs[h], err = trs[h].Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if fx[h], err = iterative.OpenFixpointOn(spec, nil, cfg, phys, trs[h]); err != nil {
			t.Fatal(err)
		}
		defer fx[h].Close()
	}
	meshed := make(chan error, 1) // one send, from the one goroutine below
	go func() { meshed <- trs[1].ConnectPeers(addrs, 5*time.Second) }()
	if err := trs[0].ConnectPeers(addrs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-meshed; err != nil {
		t.Fatal(err)
	}

	oracle := difftest.CCReference(g)
	barrier := &peerBarrier{peer: fx[1], done: make(chan peerStep, 1)}
	converge := func(ctx string) {
		t.Helper()
		for h := range fx {
			fx[h].Solution().Reset()
			fx[h].Solution().Init(s0)
		}
		fx[1].SeedWorkset(w0)
		if _, err := fx[0].RunDriven(w0, iterative.DriveHooks{Barrier: barrier}); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for h := range fx {
			for _, p := range place.HostedBy(h) {
				fx[h].Solution().EachPartition(p, func(r record.Record) {
					if oracle[r.A] != r.B {
						t.Errorf("%s: vertex %d -> %d, oracle %d", ctx, r.A, r.B, oracle[r.A])
					}
				})
			}
		}
	}
	converge("opened plan")
	before := fx[0].Plan().NumEdges
	for h := range fx {
		if err := fx[h].Rebind(ccSpecCombined(g)); err != nil {
			t.Fatal(err)
		}
	}
	if after := fx[0].Plan().NumEdges; after <= before {
		t.Fatalf("rebound plan has %d edges, the opened one %d; the test needs more", after, before)
	}
	converge("rebound plan")
}

// TestLostSolutionSpillFailsRun: when the spill file of an evicted
// solution partition is cut short mid-run, RunIncremental returns an error
// wrapping runtime.ErrSolutionSpillLost and leaves no spill file behind.
// The replay that finds the damage may run inside a task (a probe) or on
// the driver goroutine (the merge, the final copy), outside any task's
// recover; either way the run ends in that error, never a panic.
func TestLostSolutionSpillFailsRun(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	spillFiles := func() []string {
		files, err := filepath.Glob(filepath.Join(dir, "spinflow-spill-*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	g := graphgen.Uniform("spill-loss", 400, 800, 0x5B1)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	// The damage is done from inside the Δ plan: the first toNeighbors
	// call of the run truncates every spill file present at that moment.
	// A concurrent task may reload (and so remove) a file between the glob
	// and the truncate; such a file is skipped.
	truncated := 0
	var once sync.Once
	for _, n := range spec.Plan.Nodes() {
		if n.Name != "toNeighbors" {
			continue
		}
		match := n.Match
		n.Match = func(d, e record.Record, out dataflow.Emitter) {
			once.Do(func() {
				for _, f := range spillFiles() {
					if err := os.Truncate(f, 3); err != nil {
						if !os.IsNotExist(err) {
							t.Error(err)
						}
						continue
					}
					truncated++
				}
			})
			match(d, e, out)
		}
	}
	cfg := iterative.Config{Parallelism: 4, SolutionMemoryBudget: 16 * record.EncodedSize}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if truncated == 0 {
		t.Fatal("no partition was evicted under the tiny budget")
	}
	if !errors.Is(err, runtime.ErrSolutionSpillLost) || res != nil {
		t.Fatalf("RunIncremental = %v, %v; want a nil result and ErrSolutionSpillLost", res, err)
	}
	if left := spillFiles(); len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}
