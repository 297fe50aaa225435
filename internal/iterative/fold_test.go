package iterative_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// The workset fold: a spec declaring BestCandidateOnly lets the optimizer
// absorb a keep-the-better fold, derived from the ∪̇ comparator, into the
// operator producing W', and the engine folds W0 with it — when direct
// merge is off and the static estimates promise ≥ 4× fewer records.

// foldedNode returns the name of the plan node that absorbed the workset
// fold, or "".
func foldedNode(phys *optimizer.PhysPlan) string {
	for _, n := range phys.Nodes {
		if strings.HasSuffix(n.Name(), "+best-combine") {
			return n.Name()
		}
	}
	return ""
}

// TestWorksetFoldChoice pins the fold decision at every point a run can
// plan at (auditEstimates), with both planners, on one and two hosts: it
// is taken for CoGroup CC on a dense R-MAT graph, and declined for CoGroup
// CC on a mean-degree-2 graph and on the chained long-tail shape (too few
// candidates per key), and for the direct-merge specs (CC Match, SSSP).
func TestWorksetFoldChoice(t *testing.T) {
	rmat := auditGraphs()[0]
	chain := auditGraphs()[1]
	sparse := graphgen.Uniform("mean-degree-2", 2000, 2000, 11)
	cog := func(g *graphgen.Graph) iterative.IncrementalSpec {
		spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
		return spec
	}
	match, _, _ := algorithms.CCIncrementalSpec(rmat, algorithms.CCMatch)
	sssp, _, _ := algorithms.SSSPSpec(algorithms.UnitWeights(rmat), 0)
	for _, c := range []struct {
		name string
		spec iterative.IncrementalSpec
		want bool
	}{
		{"cc-cogroup/rmat", cog(rmat), true},
		{"cc-cogroup/mean-degree-2", cog(sparse), false},
		{"cc-cogroup/chain", cog(chain), false},
		{"cc-match/rmat", match, false},
		{"sssp/rmat", sssp, false},
	} {
		if !c.spec.BestCandidateOnly {
			t.Fatalf("%s: the spec does not declare BestCandidateOnly", c.name)
		}
		for _, par := range []int{1, 2, 4} {
			for _, hosts := range []int{1, 2} {
				if hosts > par {
					continue
				}
				for _, planner := range []optimizer.PlannerKind{optimizer.PlannerCost, optimizer.PlannerGreedy} {
					cfg := iterative.Config{Parallelism: par, Hosts: hosts, Planner: planner}
					for _, est := range auditEstimates(c.spec.Workset.EstRecords) {
						spec := c.spec
						saved := spec.Workset.EstRecords
						spec.Workset.EstRecords = est
						phys, err := iterative.PlanIncremental(spec, cfg, 0)
						spec.Workset.EstRecords = saved
						if err != nil {
							t.Fatal(err)
						}
						got := foldedNode(phys)
						if (got != "") != c.want {
							t.Errorf("%s P%d hosts %d %s est %d: folded into %q, want fold %t\n%s",
								c.name, par, hosts, planner, est, got, c.want, phys.Explain())
						}
						if c.want && got != "toNeighbors+best-combine" {
							t.Errorf("%s: the fold sits on %q, want toNeighbors", c.name, got)
						}
					}
				}
			}
		}
	}
}

// TestWorksetFoldFingerprint pins that the fold is part of plan identity:
// the same spec planned with and without the declaration fingerprints
// differently, so hosts that disagree on it cannot run one session.
func TestWorksetFoldFingerprint(t *testing.T) {
	spec, _, _ := algorithms.CCIncrementalSpec(auditGraphs()[0], algorithms.CCCoGroup)
	cfg := iterative.Config{Parallelism: 2, Hosts: 2}
	folded, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.BestCandidateOnly = false
	plain, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if foldedNode(folded) == "" || foldedNode(plain) != "" {
		t.Fatalf("fold taken %q with the declaration and %q without", foldedNode(folded), foldedNode(plain))
	}
	if folded.Fingerprint() != again.Fingerprint() {
		t.Error("two plannings of one folded spec fingerprint differently")
	}
	if folded.Fingerprint() == plain.Fingerprint() {
		t.Error("a folded and an unfolded plan share a fingerprint")
	}
}

// foldGraph is a dense R-MAT graph with a short tail: the fold is taken
// for CoGroup CC at P1, P2 and P4.
func foldGraph() *graphgen.Graph {
	return graphgen.RMAT("fold", 9, 16_000, 0.57, 0.19, 0.19, 5).WithDiameterTail(6, 0)
}

// integerWeights weights g's undirected edges 1..5, so every path length
// is exact and SSSP's fixpoint is bit-for-bit independent of the order
// candidates arrive in.
func integerWeights(g *graphgen.Graph) []algorithms.WeightedEdge {
	out := algorithms.UnitWeights(g)
	for i := range out {
		out[i].Weight = float64(1 + (out[i].Src+out[i].Dst)%5)
	}
	return out
}

func sortedRecords(recs []record.Record) []record.Record {
	out := slices.Clone(recs)
	slices.SortFunc(out, func(a, b record.Record) int {
		if record.Less(a, b) {
			return -1
		}
		if record.Less(b, a) {
			return 1
		}
		return 0
	})
	return out
}

// TestWorksetFoldByteIdentical runs CoGroup CC and SSSP with and without
// the BestCandidateOnly declaration at P1/P2/P4, fusion on and off, under
// both planners with mid-run re-planning on: the fixpoints must be
// byte-identical. The CC runs must have taken the fold and grouped fewer
// working-set records for it; SSSP merges directly and never folds.
func TestWorksetFoldByteIdentical(t *testing.T) {
	g := foldGraph()
	type run func(declare bool, cfg iterative.Config) (*iterative.IncrementalResult, error)
	algos := []struct {
		name string
		fold bool
		run  run
	}{
		{"cc-cogroup", true, func(declare bool, cfg iterative.Config) (*iterative.IncrementalResult, error) {
			spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
			spec.BestCandidateOnly, spec.Reoptimize = declare, true
			return iterative.RunIncremental(spec, s0, w0, cfg)
		}},
		{"sssp", false, func(declare bool, cfg iterative.Config) (*iterative.IncrementalResult, error) {
			spec, s0, w0 := algorithms.SSSPSpec(integerWeights(g), 0)
			spec.BestCandidateOnly, spec.Reoptimize = declare, true
			return iterative.RunIncremental(spec, s0, w0, cfg)
		}},
	}
	for _, a := range algos {
		for _, par := range []int{1, 2, 4} {
			for _, fusion := range []bool{true, false} {
				for _, planner := range []optimizer.PlannerKind{optimizer.PlannerCost, optimizer.PlannerGreedy} {
					name := fmt.Sprintf("%s/P%d/fusion=%t/%s", a.name, par, fusion, planner)
					var with, without metrics.Counters
					cfg := iterative.Config{Parallelism: par, DisableFusion: !fusion, Planner: planner}
					cfg.Metrics = &with
					folded, err := a.run(true, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cfg.Metrics = &without
					plain, err := a.run(false, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(sortedRecords(folded.Solution), sortedRecords(plain.Solution)) {
						t.Errorf("%s: the declaration changed the fixpoint", name)
					}
					if got := foldedNode(folded.Plan) != ""; got != a.fold {
						t.Errorf("%s: fold taken %t, want %t", name, got, a.fold)
					}
					if a.fold && with.WorksetElements.Load()*4 > without.WorksetElements.Load() {
						t.Errorf("%s: %d working-set records with the fold, %d without; want ≥ 4× fewer",
							name, with.WorksetElements.Load(), without.WorksetElements.Load())
					}
				}
			}
		}
	}
}

// pendingBound is a single-process Barrier that checks every step's
// produced working set against a bound.
type pendingBound struct {
	t     *testing.T
	bound int
	seen  int
}

func (b *pendingBound) Release(int) error { return nil }

func (b *pendingBound) Collect(step, localNext int) (int, error) {
	b.seen++
	if step == 0 && localNext > b.bound {
		b.t.Errorf("superstep 0 produced %d working-set records; the fold leaves at most %d", localNext, b.bound)
	}
	return localNext, nil
}

// TestWorksetFoldBoundsPending drives a folded CoGroup CC fixpoint
// through a barrier: the working set the producer folded after the first
// superstep holds at most one candidate per key and producing partition
// (≤ P × |V|), and the driven run reaches RunIncremental's fixpoint.
func TestWorksetFoldBoundsPending(t *testing.T) {
	const par = 2
	g := foldGraph()
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	cfg := iterative.Config{Parallelism: par}
	want, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	f := openFixpoint(t, spec, cfg)
	defer f.Close()
	if foldedNode(f.Plan()) == "" {
		t.Fatalf("the fold was not taken:\n%s", f.Plan().Explain())
	}
	f.Solution().Init(s0)
	barrier := &pendingBound{t: t, bound: par * len(s0)}
	if _, err := f.RunDriven(w0, iterative.DriveHooks{Barrier: barrier}); err != nil {
		t.Fatal(err)
	}
	if barrier.seen < 2 {
		t.Fatalf("the run converged after %d supersteps; the check needs a pending working set", barrier.seen)
	}
	if !slices.Equal(sortedRecords(f.Solution().Snapshot()), sortedRecords(want.Solution)) {
		t.Error("the driven run reached a different fixpoint")
	}
}

// TestBestCandidateOnlyNeedsComparator: the fold is derived from the
// comparator, so declaring it without one is refused.
func TestBestCandidateOnlyNeedsComparator(t *testing.T) {
	spec, s0, w0 := algorithms.CCIncrementalSpec(foldGraph(), algorithms.CCCoGroup)
	spec.Comparator = nil
	if _, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{}); err == nil ||
		!strings.Contains(err.Error(), "Comparator") {
		t.Fatalf("got %v, want a missing-Comparator error", err)
	}
}
