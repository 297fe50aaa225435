package optimizer

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// foldPlan is Figure 5's Δ shape: W → upd (solution cogroup, one update
// per key) → D, and upd ⋈ N → prop → W'. keys and candidates are the
// static estimates of upd and prop; tap adds a second consumer of prop.
func foldPlan(t *testing.T, keys, candidates int64, par int, tap bool) (*PhysPlan, *dataflow.Node, *dataflow.Node) {
	t.Helper()
	p := dataflow.NewPlan()
	w := p.IterationPlaceholder("W", candidates)
	upd := p.SolutionCoGroupNode("upd", w, record.KeyA,
		func(int64, []record.Record, record.Record, bool, dataflow.Emitter) {})
	upd.Preserve(0, record.KeyA)
	upd.EstRecords = keys
	d := p.SinkNode("D", upd)
	n := p.SourceOf("N", []record.Record{{A: 1, B: 2}, {A: 2, B: 1}})
	prop := p.MatchNode("prop", upd, n, record.KeyA, record.KeyA,
		func(_, e record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: e.B}) })
	prop.EstRecords = candidates
	ws := p.SinkNode("W'", prop)
	if tap {
		p.SinkNode("tap", prop)
	}
	phys, err := Optimize(p, Options{
		Parallelism: par, ExpectedIterations: 10,
		PlaceholderProps: map[int]Props{w.ID: {Part: record.KeyID(record.KeyA)}},
		SinkPartition:    map[int]record.KeyFunc{d.ID: record.KeyA, ws.ID: record.KeyA},
		Feedback:         map[int]int{w.ID: ws.ID},
		Fuse:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fold := &dataflow.Node{ID: len(p.Nodes()), Name: "best", Contract: dataflow.ReduceOp,
		Keys: [2]record.KeyFunc{record.KeyA}, Combinable: true,
		Reduce: func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) }}
	return phys, ws, fold
}

// TestFoldWorksetPricing pins FoldWorkset's rule: the fold is absorbed
// into W's producer when its output estimate, min(keys × P, candidates),
// is at most a quarter of the candidates, and only when the producer
// feeds nothing but the workset sink. The fold changes the fingerprint and
// shows in the producer's name.
func TestFoldWorksetPricing(t *testing.T) {
	for _, c := range []struct {
		keys, candidates int64
		par              int
		tap, want        bool
	}{
		{1000, 40_000, 1, false, true},
		{1000, 40_000, 4, false, true},   // 10 per key and partition
		{1000, 40_000, 16, false, false}, // 2.5
		{1000, 4_000, 1, false, true},    // exactly 4
		{1000, 3_999, 1, false, false},
		{1000, 40_000, 1, true, false}, // prop has a second consumer
		{0, 40_000, 1, false, false},   // no key estimate
	} {
		phys, ws, fold := foldPlan(t, c.keys, c.candidates, c.par, c.tap)
		before := phys.Fingerprint()
		got := FoldWorkset(phys, ws.ID, fold, c.keys)
		if got != c.want {
			t.Errorf("keys %d candidates %d P%d tap %t: folded %t, want %t\n%s",
				c.keys, c.candidates, c.par, c.tap, got, c.want, phys.Explain())
			continue
		}
		if (phys.Fingerprint() != before) != c.want {
			t.Errorf("keys %d candidates %d P%d: fingerprint changed %t, want %t",
				c.keys, c.candidates, c.par, phys.Fingerprint() != before, c.want)
		}
		if !c.want {
			continue
		}
		var producer *PhysNode
		for _, n := range phys.Nodes {
			if n.Combiner == fold {
				producer = n
			}
		}
		if producer == nil || producer.Name() != "prop+best-combine" {
			t.Fatalf("fold not on prop:\n%s", phys.Explain())
		}
		if FoldWorkset(phys, ws.ID, fold, c.keys) {
			t.Error("a producer took a second fold")
		}
	}
}
