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
// RunIncremental and RunMicrostep across a table of long-tailed chain
// graphs: both runs must be byte-identical to each other and to the
// union-find oracle. (The two share one engine — the Δ is admissible, so
// both merge deltas directly — which is exactly what the byte-identity
// pins.)
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

		inc, mic := sortedSolution(incRes.Solution), sortedSolution(micRes.Solution)
		if len(mic) != len(inc) {
			t.Fatalf("communities=%d: microstep has %d records, incremental %d",
				communities, len(mic), len(inc))
		}
		for j := range mic {
			if mic[j] != inc[j] {
				t.Fatalf("communities=%d: microstep[%d]=%v, incremental[%d]=%v",
					communities, j, mic[j], j, inc[j])
			}
		}
		oracle := CCReference(g)
		assign := algorithms.ComponentsToMap(incRes.Solution)
		for v, c := range oracle {
			if assign[v] != c {
				t.Fatalf("communities=%d: vertex %d -> %d, oracle %d", communities, v, assign[v], c)
			}
		}
	}
}
