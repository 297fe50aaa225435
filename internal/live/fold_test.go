package live

import (
	"strings"
	"testing"

	"repro/internal/iterative"
)

// cliqueEdges connects every pair of the n vertices starting at base.
func cliqueEdges(base, n int64) []Mutation {
	var out []Mutation
	for i := base; i < base+n; i++ {
		for j := i + 1; j < base+n; j++ {
			out = append(out, InsertEdge(i, j))
		}
	}
	return out
}

// TestShardedViewFoldedPlan opens a CC view over two dense cliques on two
// hosts: the coordinator and the worker plan independently, both absorb
// the workset fold (their digests must agree, or the view would not open),
// and the folded sharded session tracks the oracle through an insert
// batch that bridges the cliques and a delete batch that cuts the bridge.
func TestShardedViewFoldedPlan(t *testing.T) {
	initial := append(cliqueEdges(0, 30), cliqueEdges(100, 30)...)
	v, err := NewView("fold", CC(), initial, ViewConfig{
		Config: iterative.Config{Parallelism: 2}, Workers: startWorkers(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if plan := v.sess.core.fx.Plan().Explain(); !strings.Contains(plan, "toNeighbors+best-combine") {
		t.Fatalf("the view's plan does not fold the workset:\n%s", plan)
	}
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	assertCC(t, "open", v, model)

	for _, batch := range [][]Mutation{
		{InsertEdge(29, 100), InsertEdge(5, 200)},
		{DeleteEdge(29, 100)},
	} {
		mutateAndModel(t, v, model, batch...)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		assertCC(t, "after flush", v, model)
	}
}
