package runtime_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/difftest"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

// ownershipCells are the lanes and solution backends every ownership case
// runs on: a partition's owner is its task on either lane, and the spill
// backend's eviction crosses partitions under its own mutex.
var ownershipCells = []struct {
	lane   string
	pick   func() bool
	budget int64
}{
	{"serial/compact", serialLane, 0},
	{"serial/spill", serialLane, 2048},
	{"parallel/compact", parallelLane, 0},
	{"parallel/spill", parallelLane, 2048},
}

// TestSolutionPartitionOwnership runs the direct-merge fixpoints — CC's
// Match Δ and SSSP, whose solution tasks write their own partitions
// mid-superstep with no lock — at Parallelism 2 and 4 on both lanes, with
// and without a solution budget, and a 2-partition live view answering
// concurrent Query calls while it flushes. Run it under -race: a partition
// touched by anyone but its owner is a reported race.
func TestSolutionPartitionOwnership(t *testing.T) {
	g := graphgen.Uniform("owners", 400, 900, 11).WithDiameterTail(10, 0)
	ccOracle := difftest.CCReference(g.Undirected())
	we := difftest.UnitWeights(g)
	ssspOracle := difftest.SSSPReference(we, 0)
	for _, par := range []int{2, 4} {
		for _, c := range ownershipCells {
			cfg := iterative.Config{Parallelism: par, SolutionMemoryBudget: c.budget}
			t.Run(fmt.Sprintf("cc-match/par=%d/%s", par, c.lane), func(t *testing.T) {
				spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
				got := ownedRun(t, spec, s0, w0, cfg, c.pick)
				cc := algorithms.ComponentsToMap(got)
				if len(cc) != len(ccOracle) {
					t.Fatalf("%d vertices, oracle %d", len(cc), len(ccOracle))
				}
				for v, want := range ccOracle {
					if cc[v] != want {
						t.Fatalf("vertex %d -> %d, oracle %d", v, cc[v], want)
					}
				}
			})
			t.Run(fmt.Sprintf("sssp/par=%d/%s", par, c.lane), func(t *testing.T) {
				spec, s0, w0 := algorithms.SSSPSpec(we, 0)
				got := ownedRun(t, spec, s0, w0, cfg, c.pick)
				if len(got) != len(ssspOracle) {
					t.Fatalf("%d vertices reached, oracle %d", len(got), len(ssspOracle))
				}
				for _, r := range got {
					if want, ok := ssspOracle[r.A]; !ok || r.X != want {
						t.Fatalf("vertex %d at %g, oracle %g (%v)", r.A, r.X, want, ok)
					}
				}
			})
		}
	}
	for _, c := range ownershipCells {
		t.Run("live/par=2/"+c.lane, func(t *testing.T) {
			defer runtime.ForceLane(c.pick)()
			liveQueriesDuringFlushes(t, c.budget)
		})
	}
}

// ownedRun runs an admissible Δ — direct merge on — on the lane pick
// chooses and returns its fixpoint.
func ownedRun(t *testing.T, spec iterative.IncrementalSpec, s0, w0 []record.Record,
	cfg iterative.Config, pick func() bool) []record.Record {
	t.Helper()
	if _, err := iterative.ValidateMicrostep(spec); err != nil {
		t.Fatalf("the Δ must merge directly: %v", err)
	}
	defer runtime.ForceLane(pick)()
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Set.Reset() // the spill backend's files
	return res.Solution
}

// liveQueriesDuringFlushes streams insert and delete batches through a
// 2-partition CC view while readers query it, then checks the view
// against union-find over the graph it ended with.
func liveQueriesDuringFlushes(t *testing.T, budget int64) {
	var initial []live.Mutation
	for i := int64(0); i < 40; i++ {
		initial = append(initial, live.InsertEdge(i, (i+1)%40))
	}
	var m metrics.Counters
	v, err := live.NewView("cc", live.CC(), initial, live.ViewConfig{
		Config: iterative.Config{Parallelism: 2, SolutionMemoryBudget: budget, Metrics: &m}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	edges := map[[2]int64]bool{}
	for _, m := range initial {
		edges[[2]int64{m.Src, m.Dst}] = true
	}

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	var answered atomic.Int64
	for q := 0; q < 3; q++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			for k := int64(0); ; k = (k + 7) % 160 {
				select {
				case <-stop:
					return
				default:
				}
				r, ok := v.Query(k)
				if ok && (r.B < 0 || r.B > k) {
					t.Errorf("vertex %d labelled %d: not a converged min label", k, r.B)
					return
				}
				if ok {
					answered.Add(1)
				}
			}
		}()
	}
	started.Wait()
	for i := int64(0); i < 60; i++ {
		batch := []live.Mutation{live.InsertEdge(60+i, 61+i), live.InsertEdge(61+i, 3*i%40)}
		edges[[2]int64{60 + i, 61 + i}] = true
		edges[[2]int64{61 + i, 3 * i % 40}] = true
		if i%6 == 5 {
			batch = append(batch, live.DeleteEdge(i, i+1))
			delete(edges, [2]int64{i, i + 1})
		}
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if answered.Load() == 0 {
		t.Error("no Query was answered while the view flushed")
	}
	if budget > 0 && m.SolutionSpills.Load() == 0 {
		t.Error("the budget never spilled a partition; the case needs the spill backend's eviction")
	}

	var recs []record.Record
	seen := map[int64]bool{}
	for e := range edges {
		recs = append(recs, record.Record{A: e[0], B: e[1]})
		seen[e[0]], seen[e[1]] = true, true
	}
	var vertices []int64
	for x := range seen {
		vertices = append(vertices, x)
	}
	oracle := difftest.CCOf(vertices, recs)
	got := algorithms.ComponentsToMap(v.Snapshot())
	for x, want := range oracle {
		if got[x] != want {
			t.Fatalf("vertex %d -> %d, oracle %d", x, got[x], want)
		}
	}
}

// TestOwnershipForeignDeltaFails: a solution join that declares k(s)
// preserved — so its Δ merges directly — but emits another key would
// write a partition another task owns. The run fails with the typed
// error naming the node, the key and both partitions, on either lane.
func TestOwnershipForeignDeltaFails(t *testing.T) {
	const n = 16
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", n)
	upd := plan.SolutionJoinNode("shift", w, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			out.Emit(record.Record{A: (c.A + 1) % n, B: c.B}) // changes k(s)
		})
	upd.Preserve(0, record.KeyA)
	d := plan.SinkNode("D", upd)
	w2 := plan.SinkNode("W2", plan.MapNode("next", upd, func(r record.Record, out dataflow.Emitter) {}))
	spec := iterative.IncrementalSpec{Plan: plan, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: record.KeyA, WorksetKey: record.KeyA}
	if _, err := iterative.ValidateMicrostep(spec); err != nil {
		t.Fatalf("the Δ must merge directly: %v", err)
	}
	var s0, w0 []record.Record
	for i := int64(0); i < n; i++ {
		s0 = append(s0, record.Record{A: i, B: i})
		w0 = append(w0, record.Record{A: i, B: -1})
	}
	for _, lane := range []struct {
		name string
		pick func() bool
	}{{"serial", serialLane}, {"parallel", parallelLane}} {
		t.Run(lane.name, func(t *testing.T) {
			defer runtime.ForceLane(lane.pick)()
			res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: 2})
			if err == nil {
				res.Set.Reset()
				t.Fatal("a Δ that moved its key to another partition merged without an error")
			}
			var oe *runtime.OwnerError
			if !errors.As(err, &oe) {
				t.Fatalf("want the typed ownership error, got %v", err)
			}
			node, key, part, owner := oe.Fields()
			if node != "shift" || part == owner ||
				record.PartitionOf(key, 2) != owner || record.PartitionOf((key+n-1)%n, 2) != part {
				t.Fatalf("error names node %q, key %d, partitions %d and %d: %v", node, key, part, owner, err)
			}
		})
	}
}
