package sparklike

import (
	"math"
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/graphgen"
	"repro/internal/metrics"
	"repro/internal/record"
)

func ctx(par int) *Context { return NewContext(par, nil) }

func TestParallelizeAndCollect(t *testing.T) {
	c := ctx(3)
	in := []record.Record{{A: 1}, {A: 2}, {A: 3}, {A: 4}, {A: 5}}
	rdd := c.Parallelize(in)
	out := rdd.Collect()
	if len(out) != 5 || rdd.Count() != 5 {
		t.Fatalf("collect lost records: %v", out)
	}
}

// TestMapFilter checks Filter. RDD.Map is gone (no program maps an RDD);
// the name is kept so the test's history stays traceable.
func TestMapFilter(t *testing.T) {
	c := ctx(2)
	doubled := c.Parallelize([]record.Record{{A: 2}, {A: 4}, {A: 6}})
	if doubled.Count() != 3 {
		t.Fatal("parallelize changed cardinality")
	}
	evens := doubled.Filter(func(r record.Record) bool { return r.A%4 == 0 })
	if evens.Count() != 1 {
		t.Fatalf("filter: %v", evens.Collect())
	}
}

func TestReduceByKey(t *testing.T) {
	c := ctx(4)
	var in []record.Record
	for i := 0; i < 40; i++ {
		in = append(in, record.Record{A: int64(i % 4), X: 1})
	}
	sums := c.Parallelize(in).ReduceByKey(record.KeyA,
		func(a, b record.Record) record.Record { return record.Record{A: a.A, X: a.X + b.X} })
	out := sums.Collect()
	if len(out) != 4 {
		t.Fatalf("groups: %v", out)
	}
	for _, r := range out {
		if r.X != 10 {
			t.Errorf("group %d sum %g", r.A, r.X)
		}
	}
}

func TestJoin(t *testing.T) {
	c := ctx(3)
	l := c.Parallelize([]record.Record{{A: 1, X: 10}, {A: 2, X: 20}})
	r := c.Parallelize([]record.Record{{A: 1, B: 100}, {A: 1, B: 101}, {A: 3, B: 103}})
	joined := l.Join(r, record.KeyA, record.KeyA,
		func(lr, rr record.Record, emit func(record.Record)) {
			emit(record.Record{A: lr.A, B: rr.B, X: lr.X})
		}).Collect()
	sort.Slice(joined, func(i, j int) bool { return record.Less(joined[i], joined[j]) })
	if len(joined) != 2 || joined[0].B != 100 || joined[1].B != 101 {
		t.Fatalf("join: %v", joined)
	}
}

func TestCoGroupOuter(t *testing.T) {
	c := ctx(2)
	l := c.Parallelize([]record.Record{{A: 1}, {A: 2}})
	r := c.Parallelize([]record.Record{{A: 2}, {A: 3}})
	got := l.CoGroup(r, record.KeyA, record.KeyA,
		func(k int64, ls, rs []record.Record, emit func(record.Record)) {
			emit(record.Record{A: k, B: int64(len(ls)*10 + len(rs))})
		}).Collect()
	sort.Slice(got, func(i, j int) bool { return got[i].A < got[j].A })
	want := []record.Record{{A: 1, B: 10}, {A: 2, B: 11}, {A: 3, B: 1}}
	if len(got) != 3 {
		t.Fatalf("cogroup: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %v want %v", i, got[i], want[i])
		}
	}
}

func TestShuffleCountsRecords(t *testing.T) {
	var m metrics.Counters
	c := NewContext(2, &m)
	c.Parallelize([]record.Record{{A: 1}, {A: 2}, {A: 3}}).
		ReduceByKey(record.KeyA, func(a, b record.Record) record.Record { return a })
	if m.Snapshot().RecordsShipped == 0 {
		t.Error("shuffle did not count shipped records")
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := graphgen.Uniform("pr", 120, 800, 9)
	c := ctx(3)
	got, _, err := PageRank(c, g, 12, 0.85, false)
	if err != nil {
		t.Fatal(err)
	}
	// Independent power iteration.
	n := g.NumVertices
	outdeg := make([]int64, n)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < 12; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = 0.15 / float64(n)
		}
		for _, e := range g.Edges {
			next[e.Dst] += 0.85 * rank[e.Src] / float64(outdeg[e.Src])
		}
		rank = next
	}
	for v := int64(0); v < n; v++ {
		if math.Abs(got[v]-rank[v]) > 1e-9 {
			t.Fatalf("vertex %d: %g want %g", v, got[v], rank[v])
		}
	}
}

func TestConnectedComponentsVariants(t *testing.T) {
	g := graphgen.Load(graphgen.DSFOAF, graphgen.ScaleTiny)
	want := difftest.CCReference(g.Undirected())

	bulk, err := ConnectedComponents(ctx(3), g, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimIncrementalCC(ctx(3), g, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices; v++ {
		if bulk.Components[v] != want[v] {
			t.Fatalf("bulk vertex %d: %d want %d", v, bulk.Components[v], want[v])
		}
		if sim.Components[v] != want[v] {
			t.Fatalf("sim-incr vertex %d: %d want %d", v, sim.Components[v], want[v])
		}
	}
	if bulk.Iterations < 2 || sim.Iterations < 2 {
		t.Errorf("iterations: bulk=%d sim=%d", bulk.Iterations, sim.Iterations)
	}
}

func TestSimIncrementalSendsFewerMessages(t *testing.T) {
	// The simulated-incremental variant must shuffle fewer candidate
	// messages than the bulk variant (it still copies state every pass).
	g := graphgen.FOAF(graphgen.ScaleTiny)
	var mBulk, mSim metrics.Counters
	if _, err := ConnectedComponents(NewContext(2, &mBulk), g, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := SimIncrementalCC(NewContext(2, &mSim), g, 0, false); err != nil {
		t.Fatal(err)
	}
	if mSim.Snapshot().RecordsShipped >= mBulk.Snapshot().RecordsShipped {
		t.Errorf("sim-incr shipped %d >= bulk %d", mSim.Snapshot().RecordsShipped, mBulk.Snapshot().RecordsShipped)
	}
}

func TestUnionKeepsAll(t *testing.T) {
	c := ctx(2)
	a := c.Parallelize([]record.Record{{A: 1}})
	b := c.Parallelize([]record.Record{{A: 2}, {A: 3}})
	if u := a.Union(b); u.Count() != 3 {
		t.Fatalf("union count %d", u.Count())
	}
}
