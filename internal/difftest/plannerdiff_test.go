package difftest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// plannerModes are the planner × fusion configurations the differential
// suite runs. The first entry — the cost-based enumerator with fusion off
// — is exactly the pre-existing planning pipeline and serves as the
// baseline every other mode must reproduce.
var plannerModes = []struct {
	name string
	cfg  func(iterative.Config) iterative.Config
}{
	{"cost", func(c iterative.Config) iterative.Config {
		c.Planner = optimizer.PlannerCost
		c.DisableFusion = true
		return c
	}},
	{"cost+fuse", func(c iterative.Config) iterative.Config {
		c.Planner = optimizer.PlannerCost
		return c
	}},
	{"greedy", func(c iterative.Config) iterative.Config {
		c.Planner = optimizer.PlannerGreedy
		c.DisableFusion = true
		return c
	}},
	{"greedy+fuse", func(c iterative.Config) iterative.Config {
		c.Planner = optimizer.PlannerGreedy
		return c
	}},
	{"auto", func(c iterative.Config) iterative.Config {
		c.Planner = optimizer.PlannerAuto
		c.DisableFusion = true
		return c
	}},
	{"auto+fuse", func(c iterative.Config) iterative.Config { return c }},
}

func canonicalRecords(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

func assertRecordsIdentical(t *testing.T, ctx string, got, want []record.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, baseline has %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: record %d = %v, baseline has %v", ctx, i, got[i], want[i])
		}
	}
}

// TestPlannerDifferentialCC: the greedy fast path and the auto planner
// must produce byte-identical Connected Components fixpoints to the
// cost-based planner, with and without fusion, across backends and
// parallelisms.
func TestPlannerDifferentialCC(t *testing.T) {
	graphs := []*graphgen.Graph{
		graphgen.Uniform("plan-u", 60, 120, 0xB10B),
		graphgen.PreferentialAttachment("plan-pa", 70, 2, 0xFEED),
	}
	for _, g := range graphs {
		for _, par := range parallelisms {
			for _, bk := range backends {
				var base []record.Record
				for i, pm := range plannerModes {
					cfg := pm.cfg(bk.cfg(iterative.Config{Parallelism: par}))
					name := fmt.Sprintf("%s/p%d/%s/%s", g.Name, par, bk.name, pm.name)
					_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					release(t, res.Set)
					got := canonicalRecords(res.Solution)
					if i == 0 {
						base = got
						continue
					}
					assertRecordsIdentical(t, name, got, base)
				}
			}
		}
	}
}

// TestPlannerDifferentialSSSP repeats the check for single-source
// shortest paths: exact small-integer weights, so fixpoints must be
// byte-identical across planners.
func TestPlannerDifferentialSSSP(t *testing.T) {
	const source = 0
	g := graphgen.Uniform("plan-sssp", 80, 160, 0xC0FFEE)
	we := weightedEdges(g)
	for _, par := range parallelisms {
		for _, bk := range backends {
			var base []record.Record
			for i, pm := range plannerModes {
				cfg := pm.cfg(bk.cfg(iterative.Config{Parallelism: par}))
				name := fmt.Sprintf("p%d/%s/%s", par, bk.name, pm.name)
				_, res, err := algorithms.SSSP(we, source, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				release(t, res.Set)
				got := canonicalRecords(res.Solution)
				if i == 0 {
					base = got
					continue
				}
				assertRecordsIdentical(t, name, got, base)
			}
		}
	}
}

// TestPlannerDifferentialPageRank checks the bulk engine. Rank values are
// float sums whose addend order legitimately varies with plan shape and
// batch arrival, so ranks are compared within a tight tolerance rather
// than byte-for-byte; the vertex sets must still match exactly.
func TestPlannerDifferentialPageRank(t *testing.T) {
	g := graphgen.Uniform("plan-pr", 60, 150, 0xD00D)
	for _, par := range parallelisms {
		var base map[int64]float64
		for i, pm := range plannerModes {
			cfg := pm.cfg(iterative.Config{Parallelism: par})
			name := fmt.Sprintf("p%d/%s", par, pm.name)
			ranks, _, err := algorithms.PageRank(g, 15, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i == 0 {
				base = ranks
				continue
			}
			if len(ranks) != len(base) {
				t.Fatalf("%s: %d vertices, baseline has %d", name, len(ranks), len(base))
			}
			for v, r := range base {
				if math.Abs(ranks[v]-r) > 1e-9 {
					t.Fatalf("%s: rank(%d) = %v, baseline %v", name, v, ranks[v], r)
				}
			}
		}
	}
}

// TestPlannerDifferentialReoptimize drives the mid-run re-planning path:
// with Reoptimize set and a tiny collapse trigger, the auto planner's
// greedy re-optimizations (and their plan-cache hits) must not change the
// fixpoint. Also asserts the new planning metrics move.
func TestPlannerDifferentialReoptimize(t *testing.T) {
	g := graphgen.Uniform("plan-reopt", 80, 90, 0xC0FFEE) // sparse: workset collapses
	spec, initSol, initW := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	spec.Reoptimize = true

	var base []record.Record
	for i, pm := range plannerModes {
		ctr := &metrics.Counters{}
		cfg := pm.cfg(iterative.Config{Parallelism: 4, Metrics: ctr, CollectTrace: true})
		res, err := iterative.RunIncremental(spec, initSol, initW, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pm.name, err)
		}
		got := canonicalRecords(res.Solution)
		if i == 0 {
			base = got
		} else {
			assertRecordsIdentical(t, pm.name, got, base)
		}
		snap := ctr.Snapshot()
		if snap.PlanNanos <= 0 {
			t.Fatalf("%s: PlanNanos not recorded", pm.name)
		}
		wantGreedy := pm.name == "greedy" || pm.name == "greedy+fuse"
		if wantGreedy && snap.GreedyPlans == 0 {
			t.Fatalf("%s: GreedyPlans not counted", pm.name)
		}
		if snap.Reoptimizations > 0 && (pm.name == "auto" || pm.name == "auto+fuse") && snap.GreedyPlans == 0 {
			t.Fatalf("%s: auto re-optimized %d times without the greedy fast path",
				pm.name, snap.Reoptimizations)
		}
	}
}
