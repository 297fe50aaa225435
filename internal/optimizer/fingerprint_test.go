package optimizer

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// fingerprintPlan plans source → map → map → map ⋈ source → reduce → sink with
// the greedy planner and fusion on: partitioned edges with keys, a hash
// join with a build side, a fused chain. joinKey is the left join key, so
// callers can supply the same selector under a different function value.
func fingerprintPlan(t *testing.T, joinKey record.KeyFunc) *PhysPlan {
	t.Helper()
	p := dataflow.NewPlan()
	src := withEst(p.SourceOf("src", nil), 10_000)
	m1 := p.MapNode("inc", src, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m2 := p.MapNode("scale", m1, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	m2 = p.MapNode("shift", m2, func(r record.Record, out dataflow.Emitter) { out.Emit(r) })
	small := withEst(p.SourceOf("small", nil), 100)
	j := p.MatchNode("join", m2, small, joinKey, record.KeyB,
		func(l, r record.Record, out dataflow.Emitter) { out.Emit(l) })
	red := p.ReduceNode("agg", j, record.KeyB,
		func(k int64, g []record.Record, out dataflow.Emitter) { out.Emit(g[0]) })
	p.SinkNode("out", red)
	phys, err := Optimize(p, Options{Parallelism: 4, Planner: PlannerGreedy, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

func keyA2(r record.Record) int64 { return r.A }

// TestFingerprintCoversEveryStructuralField: two plans that differ in
// exactly one field the runtime reads must not share a fingerprint — the
// hash-join build side, an edge's partition key, the sort key, the inject
// key, the fused chain, an absorbed union and an absorbed combiner
// included.
func TestFingerprintCoversEveryStructuralField(t *testing.T) {
	base := fingerprintPlan(t, record.KeyA).Fingerprint()
	if again := fingerprintPlan(t, record.KeyA).Fingerprint(); again != base {
		t.Fatal("planning the same dataflow twice gave two fingerprints")
	}

	mutations := map[string]func(p *PhysPlan){
		"BuildSide": func(p *PhysPlan) { j := findJoin(p); j.BuildSide = 1 - j.BuildSide },
		"edge partition key": func(p *PhysPlan) {
			for _, n := range p.Nodes {
				for i := range n.Inputs {
					if n.Inputs[i].Ship == ShipPartition {
						n.Inputs[i].Key = keyA2
						return
					}
				}
			}
			t.Fatal("no partitioned edge in plan")
		},
		"edge ship":   func(p *PhysPlan) { findJoin(p).Inputs[0].Ship = ShipBroadcast },
		"edge cache":  func(p *PhysPlan) { e := &findJoin(p).Inputs[1]; e.Cache = !e.Cache },
		"SortKey":     func(p *PhysPlan) { findJoin(p).SortKey = record.KeyA },
		"InjectKey":   func(p *PhysPlan) { p.Nodes[0].InjectKey = record.KeyB },
		"Local":       func(p *PhysPlan) { findJoin(p).Local = LocalSortMergeJoin },
		"Parallelism": func(p *PhysPlan) { p.Parallelism++ },
		"FusedChain":  func(p *PhysPlan) { h := fusedHead(t, p); h.FusedChain = h.FusedChain[:len(h.FusedChain)-1] },
		"FusedChain order": func(p *PhysPlan) {
			h := fusedHead(t, p)
			h.FusedChain = []*dataflow.Node{h.FusedChain[1], h.FusedChain[0]}
		},
		"Combiner": func(p *PhysPlan) { fusedHead(t, p).Combiner = findJoin(p).Logical },
		"Union":    func(p *PhysPlan) { findJoin(p).Union = fusedHead(t, p).Logical },
	}
	for name, mutate := range mutations {
		p := fingerprintPlan(t, record.KeyA)
		mutate(p)
		if p.Fingerprint() == base {
			t.Errorf("plans differing only in %s share a fingerprint", name)
		}
	}
}

// TestFingerprintIgnoresEstimatesAndPointers: cost and cardinality
// estimates are not structure, and a key selector is identified by where
// the logical plan declares it, not by its function value — which is what
// makes fingerprints comparable across processes.
func TestFingerprintIgnoresEstimatesAndPointers(t *testing.T) {
	base := fingerprintPlan(t, record.KeyA).Fingerprint()

	p := fingerprintPlan(t, record.KeyA)
	p.Cost *= 2
	for _, n := range p.Nodes {
		n.EstOut = n.EstOut*3 + 1
	}
	if p.Fingerprint() != base {
		t.Error("estimates changed the fingerprint")
	}
	if fingerprintPlan(t, keyA2).Fingerprint() != base {
		t.Error("the same selector under another function value changed the fingerprint")
	}
}

func fusedHead(t *testing.T, p *PhysPlan) *PhysNode {
	t.Helper()
	for _, n := range p.Nodes {
		if len(n.FusedChain) >= 2 {
			return n
		}
	}
	t.Fatalf("no fused chain of two in plan:\n%s", p.Explain())
	return nil
}
