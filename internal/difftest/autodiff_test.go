package difftest

import (
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/record"
)

// sortedSolution canonicalizes a solution set for byte-level comparison.
func sortedSolution(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

// TestAutoEnginesDifferential runs the same Match-variant CC through
// RunIncremental, RunMicrostep and RunAuto across a table of long-tailed
// chain graphs: every run must be byte-identical to the others and to the
// union-find oracle. (The three share one engine — the Δ is admissible,
// so all of them merge deltas directly — which is exactly what the
// byte-identity pins.)
func TestAutoEnginesDifferential(t *testing.T) {
	const par = 2
	for _, communities := range []int64{48, 24, 12, 6} {
		g := graphgen.ChainedCommunities("xover", communities, 12, 24, 0xD1FF)

		// Fresh specs per run (state is resident).
		incSpec, incS0, incW0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		incRes, err := iterative.RunIncremental(incSpec, incS0, incW0, iterative.Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		micSpec, micS0, micW0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		micRes, err := iterative.RunMicrostep(micSpec, micS0, micW0, iterative.Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		autoRes, err := iterative.RunAuto(iterative.AutoSpec{Incremental: spec}, s0, w0,
			iterative.Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}

		auto := sortedSolution(autoRes.Solution)
		for name, other := range map[string][]record.Record{
			"incremental": incRes.Solution,
			"microstep":   micRes.Solution,
		} {
			got := sortedSolution(other)
			if len(got) != len(auto) {
				t.Fatalf("communities=%d: %s has %d records, auto %d",
					communities, name, len(got), len(auto))
			}
			for j := range got {
				if got[j] != auto[j] {
					t.Fatalf("communities=%d: %s[%d]=%v, auto[%d]=%v",
						communities, name, j, got[j], j, auto[j])
				}
			}
		}
		oracle := algorithms.CCReference(g)
		assign := algorithms.ComponentsToMap(autoRes.Solution)
		for v, c := range oracle {
			if assign[v] != c {
				t.Fatalf("communities=%d: vertex %d -> %d, oracle %d", communities, v, assign[v], c)
			}
		}
	}
}

// TestAutoMatchesAllEnginesOnDiffGraphs runs the adaptive runner over the
// suite's standard random graphs (every backendless engine choice left to
// the cost model) and cross-checks against the union-find oracle — the
// differential contract extended to engine selection.
func TestAutoMatchesAllEnginesOnDiffGraphs(t *testing.T) {
	for _, g := range diffGraphs() {
		for _, par := range []int{1, 4} {
			spec, s0, w0 := algorithms.CCAutoSpec(g)
			res, err := iterative.RunAuto(spec, s0, w0, iterative.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s/par=%d: %v", g.Name, par, err)
			}
			oracle := algorithms.CCReference(g)
			assign := algorithms.ComponentsToMap(res.Solution)
			for v, c := range oracle {
				if assign[v] != c {
					t.Fatalf("%s/par=%d: vertex %d -> %d, oracle %d", g.Name, par, v, assign[v], c)
				}
			}
		}
	}
}
