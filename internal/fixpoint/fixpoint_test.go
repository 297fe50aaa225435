package fixpoint

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/difftest"
	"repro/internal/graphgen"
)

func adjOf(g *graphgen.Graph) [][]int64 {
	und := g.Undirected()
	adj := make([][]int64, und.NumVertices)
	for _, e := range und.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	return adj
}

// unionFind is the union-find oracle's assignment for g.
func unionFind(g *graphgen.Graph) Assignment {
	a := make(Assignment, g.NumVertices)
	for v, c := range difftest.CCReference(g) {
		a[v] = c
	}
	return a
}

// CPO captures the complete partial order that guarantees convergence
// (§2.1): a partial order Leq with a bottom/supremum towards which every
// step makes progress.
type CPO[S any] interface {
	// Leq reports whether a precedes-or-equals b in the order.
	Leq(a, b S) bool
}

// VerifyChain checks that a Kleene chain s, f(s), f²(s), ... is monotone in
// the CPO: every step must produce a successor (∀s: f(s) ⊑ s in the paper's
// orientation, where smaller component ids are "larger" progress). It
// returns the index of the first violation, or -1 if the chain is valid.
func VerifyChain[S any](cpo CPO[S], chain []S) int {
	for i := 1; i < len(chain); i++ {
		if !cpo.Leq(chain[i], chain[i-1]) {
			return i
		}
	}
	return -1
}

// ccCPO is the CPO over assignments defined in §2.1:
// s ⊑ s' ⇔ ∀v: s(v) ≤ s'(v); progress means component ids only decrease.
type ccCPO struct{}

func (ccCPO) Leq(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// CCOrder is the CPO over Connected-Components assignments.
var CCOrder CPO[Assignment] = ccCPO{}

func TestFixpointScalar(t *testing.T) {
	// Collatz-style contraction: f(x) = x/2 has fixpoint 0.
	f := func(x int) int { return x / 2 }
	eq := func(a, b int) bool { return a == b }
	got, iters, err := Fixpoint(f, eq, 1024, 100)
	if err != nil || got != 0 {
		t.Fatalf("fixpoint = %d (err %v), want 0", got, err)
	}
	if iters != 11 {
		t.Errorf("iters = %d, want 11 (1024 halvings + terminal check)", iters)
	}
}

func TestFixpointBudgetExceeded(t *testing.T) {
	f := func(x int) int { return x + 1 } // never converges
	eq := func(a, b int) bool { return a == b }
	_, _, err := Fixpoint(f, eq, 0, 10)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

func TestAllCCVariantsAgreeOnFigure1(t *testing.T) {
	adj := Figure1Graph()
	want := Assignment{0, 0, 0, 0, 4, 4, 6, 6, 6}

	full, _, err := FixpointCC(adj, 100)
	if err != nil || !full.Equal(want) {
		t.Errorf("FixpointCC = %v (err %v), want %v", full, err, want)
	}
	incr, _, err := IncrementalCC(adj, 100)
	if err != nil || !incr.Equal(want) {
		t.Errorf("IncrementalCC = %v (err %v), want %v", incr, err, want)
	}
	micro, _, err := MicrostepCC(adj, 1_000_000)
	if err != nil || !micro.Equal(want) {
		t.Errorf("MicrostepCC = %v (err %v), want %v", micro, err, want)
	}
}

func TestFigure1Trace(t *testing.T) {
	// Figure 1 shows the cid evolution: after one step all vertices except
	// vid=4 (paper numbering; our index 3) have their final component id;
	// convergence needs one more step.
	chain, err := TraceFixpointCC(Figure1Graph(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 { // S0, S1, S2 as in the figure
		t.Fatalf("trace length = %d, want 3 (S0,S1,S2)", len(chain))
	}
	s1 := chain[1]
	// Paper's S1 (1-based cids 1,1,1,2,5,5,7,7,7) => 0-based:
	wantS1 := Assignment{0, 0, 0, 1, 4, 4, 6, 6, 6}
	if !s1.Equal(wantS1) {
		t.Errorf("S1 = %v, want %v", s1, wantS1)
	}
	wantS2 := Assignment{0, 0, 0, 0, 4, 4, 6, 6, 6}
	if !chain[2].Equal(wantS2) {
		t.Errorf("S2 = %v, want %v", chain[2], wantS2)
	}
	if idx := VerifyChain(CCOrder, chain); idx != -1 {
		t.Errorf("Kleene chain violates the CPO at step %d", idx)
	}
}

func TestVariantsMatchUnionFindOnDatasets(t *testing.T) {
	for _, name := range []graphgen.Dataset{graphgen.DSWikipedia, graphgen.DSFOAF} {
		g := graphgen.Load(name, graphgen.ScaleTiny)
		adj := adjOf(g)
		want := unionFind(g)

		full, _, err := FixpointCC(adj, 10000)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		if !full.Equal(want) {
			t.Errorf("%s: FixpointCC disagrees with union-find", name)
		}
		incr, _, err := IncrementalCC(adj, 10000)
		if err != nil {
			t.Fatalf("%s incr: %v", name, err)
		}
		if !incr.Equal(want) {
			t.Errorf("%s: IncrementalCC disagrees with union-find", name)
		}
		micro, _, err := MicrostepCC(adj, 1<<62)
		if err != nil {
			t.Fatalf("%s micro: %v", name, err)
		}
		if !micro.Equal(want) {
			t.Errorf("%s: MicrostepCC disagrees with union-find", name)
		}
	}
}

func TestVariantsAgreeProperty(t *testing.T) {
	// Property: on random graphs, all three Table-1 templates and the
	// union-find oracle compute identical component assignments.
	f := func(seed uint64) bool {
		g := graphgen.Uniform("r", 60, 90, seed)
		adj := adjOf(g)
		want := unionFind(g)
		full, _, err1 := FixpointCC(adj, 10000)
		incr, _, err2 := IncrementalCC(adj, 10000)
		micro, _, err3 := MicrostepCC(adj, 1<<62)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return full.Equal(want) && incr.Equal(want) && micro.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalConvergesInFewerTouches(t *testing.T) {
	// §2.3: the incremental variant must touch far less state than the
	// bulk variant on a graph where most vertices converge early.
	g := graphgen.FOAF(graphgen.ScaleTiny)
	adj := adjOf(g)

	fullTouches := 0
	s := InitialAssignment(int64(len(adj)))
	for iter := 0; ; iter++ {
		next := s.Clone()
		for v := range adj {
			fullTouches++
			m := s[v]
			for _, n := range adj[v] {
				if s[n] < m {
					m = s[n]
				}
			}
			next[v] = m
		}
		if next.Equal(s) {
			break
		}
		s = next
	}

	// Incremental touches = working-set elements processed in total.
	incrTouches := 0
	si := InitialAssignment(int64(len(adj)))
	w := initialCandidates(adj, si)
	for len(w) > 0 {
		best := map[int64]int64{}
		for _, cand := range w {
			incrTouches++
			if cand.C >= si[cand.V] {
				continue
			}
			if b, ok := best[cand.V]; !ok || cand.C < b {
				best[cand.V] = cand.C
			}
		}
		var next []Candidate
		for v, c := range best {
			si[v] = c
			for _, n := range adj[v] {
				next = append(next, Candidate{V: n, C: c})
			}
		}
		w = next
	}
	if !si.Equal(s) {
		t.Fatal("incremental and bulk disagree")
	}
	if incrTouches >= fullTouches*3 {
		t.Errorf("incremental touches (%d) should not vastly exceed bulk (%d)", incrTouches, fullTouches)
	}
	t.Logf("bulk state touches=%d, incremental workset touches=%d", fullTouches, incrTouches)
}

func TestMicrostepBudget(t *testing.T) {
	adj := Figure1Graph()
	_, _, err := MicrostepCC(adj, 1)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestVerifyChainDetectsViolation(t *testing.T) {
	bad := []Assignment{{5, 5}, {3, 3}, {4, 2}} // step 2 raises vertex 0
	if idx := VerifyChain(CCOrder, bad); idx != 2 {
		t.Errorf("violation index = %d, want 2", idx)
	}
	good := []Assignment{{5, 5}, {3, 3}, {3, 2}}
	if idx := VerifyChain(CCOrder, good); idx != -1 {
		t.Errorf("valid chain flagged at %d", idx)
	}
}

func TestCPOLengthMismatch(t *testing.T) {
	if CCOrder.Leq(Assignment{1}, Assignment{1, 2}) {
		t.Error("length mismatch must not be Leq")
	}
}

func TestUnionFindSmallestLabel(t *testing.T) {
	// Labels must be the minimum vertex id of each component.
	g := graphgen.Uniform("r", 30, 40, 9)
	a := unionFind(g)
	for v, c := range a {
		if c > int64(v) {
			t.Fatalf("vertex %d labelled %d > own id", v, c)
		}
	}
}

func TestGenericIncrementalEmptyStart(t *testing.T) {
	// An empty initial working set terminates immediately with S unchanged.
	s, iters, err := Incremental(
		func(s int, w []int) []int { return w },
		func(d []int, s int, w []int) []int { return nil },
		func(s int, d []int) int { return s + len(d) },
		func(w []int) bool { return len(w) == 0 },
		42, nil, 10,
	)
	if err != nil || s != 42 || iters != 0 {
		t.Fatalf("got s=%d iters=%d err=%v", s, iters, err)
	}
}
