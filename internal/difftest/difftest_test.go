package difftest

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/pregel"
	"repro/internal/record"
	"repro/internal/runtime"
	"repro/internal/sparklike"
)

// diffGraphs returns the seeded random graphs the suite runs on: uniform
// (Erdős–Rényi) graphs of a few hundred edges plus a preferential-
// attachment graph, so both flat and skewed degree distributions are
// covered.
func diffGraphs() []*graphgen.Graph {
	return []*graphgen.Graph{
		graphgen.Uniform("diff-u1", 60, 120, 0xB10B),
		graphgen.Uniform("diff-u2", 80, 90, 0xC0FFEE), // sparse: many components
		graphgen.Uniform("diff-u3", 50, 200, 7),       // dense single component
		graphgen.PreferentialAttachment("diff-pa", 70, 2, 0xFEED),
	}
}

// diffWeights derives a deterministic small-integer weight for an edge, so
// path sums are exact in float64 and every engine sees identical lengths.
func diffWeight(src, dst int64) float64 {
	return float64(1 + (src*7+dst*13)%4)
}

// weightedEdges builds the weighted (directed, both orientations) edge
// list all SSSP engines run on.
func weightedEdges(g *graphgen.Graph) []algorithms.WeightedEdge {
	und := g.Undirected()
	out := make([]algorithms.WeightedEdge, len(und.Edges))
	for i, e := range und.Edges {
		out[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: diffWeight(e.Src, e.Dst)}
	}
	return out
}

var parallelisms = []int{1, 4}

// backends are the solution-set configurations every iterative engine run
// is repeated with; results must not depend on the choice.
var backends = []struct {
	name string
	cfg  func(iterative.Config) iterative.Config
}{
	{"compact", func(c iterative.Config) iterative.Config { return c }},
	{"spill", func(c iterative.Config) iterative.Config {
		c.SolutionMemoryBudget = 16 * record.EncodedSize
		return c
	}},
}

// release resets a run's resident solution set when the test ends: a
// spill-backed set owns its temp files until then.
// runMicrostep runs an incremental iteration whose Δ must meet the §5.2
// microstep conditions: ValidateMicrostep first, then the incremental
// engine, which merges an admitted Δ's deltas as they are produced.
func runMicrostep(spec iterative.IncrementalSpec, s0, w0 []record.Record, cfg iterative.Config) (*iterative.IncrementalResult, error) {
	if _, err := iterative.ValidateMicrostep(spec); err != nil {
		return nil, err
	}
	return iterative.RunIncremental(spec, s0, w0, cfg)
}

func release(t *testing.T, set *runtime.SolutionSet) {
	if set != nil {
		t.Cleanup(set.Reset)
	}
}

func assertComponentsEqual(t *testing.T, ctx string, got, want map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, oracle has %d", ctx, len(got), len(want))
	}
	for v, c := range want {
		if got[v] != c {
			t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, v, got[v], c)
		}
	}
}

// TestConnectedComponentsAcrossEngines runs CC on every engine, graph,
// parallelism and solution backend, and compares against the union-find
// oracle (and therefore against every other engine).
func TestConnectedComponentsAcrossEngines(t *testing.T) {
	for _, g := range diffGraphs() {
		oracle := CCReference(g)
		for _, par := range parallelisms {
			for _, bk := range backends {
				cfg := bk.cfg(iterative.Config{Parallelism: par})
				name := fmt.Sprintf("%s/p%d/%s", g.Name, par, bk.name)

				got, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
				if err != nil {
					t.Fatalf("%s: incr-cogroup: %v", name, err)
				}
				release(t, res.Set)
				assertComponentsEqual(t, name+"/incr-cogroup", got, oracle)

				got, res, err = algorithms.CCIncremental(g, algorithms.CCMatch, cfg)
				if err != nil {
					t.Fatalf("%s: incr-match: %v", name, err)
				}
				release(t, res.Set)
				assertComponentsEqual(t, name+"/incr-match", got, oracle)

				spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
				mres, err := runMicrostep(spec, s0, w0, cfg)
				if err != nil {
					t.Fatalf("%s: microstep: %v", name, err)
				}
				release(t, mres.Set)
				assertComponentsEqual(t, name+"/microstep", algorithms.ComponentsToMap(mres.Solution), oracle)
			}

			// The baseline engines have no solution set; run them once per
			// parallelism.
			name := fmt.Sprintf("%s/p%d", g.Name, par)
			pg, _, err := pregel.ConnectedComponents(g, pregel.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: pregel: %v", name, err)
			}
			assertComponentsEqual(t, name+"/pregel", pg, oracle)

			sr, err := sparklike.ConnectedComponents(sparklike.NewContext(par, nil), g, 0, false)
			if err != nil {
				t.Fatalf("%s: sparklike: %v", name, err)
			}
			assertComponentsEqual(t, name+"/sparklike", sr.Components, oracle)
		}
	}
}

func assertDistancesEqual(t *testing.T, ctx string, got, want map[int64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: reached %d vertices, oracle reached %d", ctx, len(got), len(want))
	}
	for v, d := range want {
		gd, ok := got[v]
		if !ok || gd != d {
			t.Fatalf("%s: dist(%d) = %v (reached=%v), oracle %v", ctx, v, gd, ok, d)
		}
	}
}

// distances maps an SSSP solution's vertices to their distances.
func distances(recs []record.Record) map[int64]float64 {
	m := make(map[int64]float64, len(recs))
	for _, r := range recs {
		m[r.A] = r.X
	}
	return m
}

// TestSSSPAcrossEngines runs single-source shortest paths through the
// incremental engine, plain and through runMicrostep, with identical deterministic
// integer weights (exact in float64) and compares against the Dijkstra
// oracle. The Pregel-style and Spark-style engines run Connected
// Components only; no figure runs SSSP on them.
func TestSSSPAcrossEngines(t *testing.T) {
	const source = 0
	for _, g := range diffGraphs() {
		we := weightedEdges(g)
		oracle := SSSPReference(we, source)

		for _, par := range parallelisms {
			for _, bk := range backends {
				cfg := bk.cfg(iterative.Config{Parallelism: par})
				name := fmt.Sprintf("%s/p%d/%s", g.Name, par, bk.name)

				spec, s0, w0 := algorithms.SSSPSpec(we, source)
				res, err := iterative.RunIncremental(spec, s0, w0, cfg)
				if err != nil {
					t.Fatalf("%s: incremental: %v", name, err)
				}
				release(t, res.Set)
				assertDistancesEqual(t, name+"/incremental", distances(res.Solution), oracle)

				spec, s0, w0 = algorithms.SSSPSpec(we, source)
				res, err = runMicrostep(spec, s0, w0, cfg)
				if err != nil {
					t.Fatalf("%s: microstep: %v", name, err)
				}
				release(t, res.Set)
				assertDistancesEqual(t, name+"/microstep", distances(res.Solution), oracle)
			}
		}
	}
}

// TestBackendIndependenceByteIdentical checks the stronger property the
// out-of-core acceptance demands: the raw solution records (not just the
// derived assignment maps) are byte-identical across backends.
func TestBackendIndependenceByteIdentical(t *testing.T) {
	g := graphgen.Uniform("diff-bytes", 120, 240, 0xD1FF)
	canonical := func(recs []record.Record) []record.Record {
		out := append([]record.Record(nil), recs...)
		sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
		return out
	}
	var base []record.Record
	for i, bk := range backends {
		cfg := bk.cfg(iterative.Config{Parallelism: 4})
		_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bk.name, err)
		}
		release(t, res.Set)
		got := canonical(res.Solution)
		if i == 0 {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%s: %d records, %s has %d", bk.name, len(got), backends[0].name, len(base))
		}
		for j := range got {
			if !got[j].Equal(base[j]) {
				t.Fatalf("%s: record %d = %v, %s has %v", bk.name, j, got[j], backends[0].name, base[j])
			}
		}
	}
}
