package runtime

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// buildChainPlan assembles source → (map|filter|project)^n → sink, the
// shape the fusion rewrite collapses; when the last stage byte has its
// high bit set the chain ends in a combinable reduce, whose combiner the
// rewrite absorbs too, and when the first stage byte has bit 0x40 set the
// chain starts with a union of the source and a second source, which the
// rewrite absorbs into the first. Every stage is deterministic and
// derived from the fuzz input.
func buildChainPlan(seed uint64, stages []byte) (*dataflow.Plan, *dataflow.Node) {
	rng := &fuzzRNG{s: seed | 1}
	data := make([]record.Record, 50+rng.intn(100))
	for i := range data {
		v := rng.next()
		data[i] = record.Record{A: int64(v % 37), B: int64(v >> 17 % 50), X: float64(v % 1000)}
	}
	p := dataflow.NewPlan()
	cur := p.SourceOf("src", data)
	if len(stages) > 0 && stages[0]&0x40 != 0 {
		tail := make([]record.Record, rng.intn(60))
		for i := range tail {
			v := rng.next()
			tail[i] = record.Record{A: int64(v % 41), B: int64(v >> 11 % 50), X: float64(v % 500)}
		}
		cur = p.UnionNode("union", cur, p.SourceOf("tail", tail))
	}
	for i, s := range stages {
		mod := int64(2 + int(s)>>4) // derived per-stage constants
		add := float64(int(s) & 7)
		switch int(s) % 3 {
		case 0:
			cur = p.MapNode(name("map", i), cur, func(r record.Record, out dataflow.Emitter) {
				r.X += add
				out.Emit(r)
			})
		case 1:
			cur = p.FilterNode(name("filter", i), cur, func(r record.Record) bool {
				return r.A%mod != 0
			})
		case 2:
			// Projection: strip a field, possibly expanding to two records
			// (fused UDFs must compose through multi-emit too).
			cur = p.MapNode(name("project", i), cur, func(r record.Record, out dataflow.Emitter) {
				out.Emit(record.Record{A: r.A, X: r.X})
				if r.B%mod == 0 {
					out.Emit(record.Record{A: -r.A, X: -r.X})
				}
			})
		}
	}
	if len(stages) > 0 && stages[len(stages)-1] >= 0x80 {
		// A sum that drops a partial or splits it in two on some values,
		// so the fold's one-record path and its cold path both run. The
		// X values are integers, so every partial sum is exact.
		red := p.ReduceNode("sum", cur, record.KeyA, func(k int64, g []record.Record, out dataflow.Emitter) {
			var s float64
			for _, r := range g {
				s += r.X
			}
			switch v := int64(s); {
			case len(g) > 1 && v%5 == 0:
			case len(g) > 1 && v%3 == 0:
				out.Emit(record.Record{A: k, X: s - 1})
				out.Emit(record.Record{A: k, X: 1})
			default:
				out.Emit(record.Record{A: k, X: s})
			}
		})
		red.Combinable = true
		red.EstRecords = 4 // few keys: the cost model wants the combiner
		cur = red
	}
	sink := p.SinkNode("out", cur)
	return p, sink
}

func name(prefix string, i int) string {
	return prefix + string(rune('0'+i%10))
}

// runChain executes the chain with or without fusion and returns the
// per-partition record sequences exactly as emitted, and the plan.
func runChain(t *testing.T, seed uint64, stages []byte, par int, fuse bool) ([][]record.Record, *optimizer.PhysPlan) {
	t.Helper()
	p, sink := buildChainPlan(seed, stages)
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: par, Fuse: fuse})
	if err != nil {
		t.Fatalf("seed %d par %d fuse %v: optimize: %v", seed, par, fuse, err)
	}
	e := NewExecutor(Config{})
	defer e.Close()
	res, err := e.Run(phys)
	if err != nil {
		t.Fatalf("seed %d par %d fuse %v: run: %v", seed, par, fuse, err)
	}
	return res[sink.ID], phys
}

func hasAbsorbedUnion(p *optimizer.PhysPlan) bool {
	for _, n := range p.Nodes {
		if n.Union != nil {
			return true
		}
	}
	return false
}

func hasCombinerTask(p *optimizer.PhysPlan) bool {
	for _, n := range p.Nodes {
		if n.Role == optimizer.RoleCombiner {
			return true
		}
	}
	return false
}

// FuzzFusedChain is the fusion correctness fuzzer: for arbitrary chains
// of map/filter/project stages, possibly starting with a union and ending
// in a combinable reduce,
// the fused plan must emit exactly the record sequence of the unfused plan
// — same records, same order, per partition.
func FuzzFusedChain(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2})
	f.Add(uint64(42), []byte{2, 2, 0, 1})
	f.Add(uint64(7), []byte{1})
	f.Add(uint64(99), []byte{0, 0, 0, 0, 0, 2, 1, 0})
	f.Add(uint64(5), []byte{2, 0x80})
	f.Add(uint64(11), []byte{0x81})
	f.Add(uint64(23), []byte{1, 2, 0, 0x82})
	f.Add(uint64(3), []byte{0x40, 1, 2})
	f.Add(uint64(17), []byte{0x41})
	f.Add(uint64(29), []byte{0x42, 0, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, stages []byte) {
		if len(stages) > 12 {
			stages = stages[:12]
		}
		for _, par := range []int{1, 3} {
			plain, unfused := runChain(t, seed, stages, par, false)
			if unfused.Fused != 0 {
				t.Fatalf("unfused plan reports %d fused operators", unfused.Fused)
			}
			if reduces := len(stages) > 0 && stages[len(stages)-1] >= 0x80; reduces != hasCombinerTask(unfused) {
				t.Fatalf("seed %d par %d: chain ends in a reduce: %v, unfused plan has a combiner: %v\n%s",
					seed, par, reduces, !reduces, unfused.Explain())
			}
			withFuse, fused := runChain(t, seed, stages, par, true)
			if len(stages) >= 2 && fused.Fused == 0 {
				t.Fatalf("seed %d: %d-stage chain fused nothing", seed, len(stages))
			}
			if union := len(stages) > 0 && stages[0]&0x40 != 0; union != hasAbsorbedUnion(fused) {
				t.Fatalf("seed %d par %d: chain starts with a union: %v, fused plan absorbed one: %v\n%s",
					seed, par, union, !union, fused.Explain())
			}
			if hasCombinerTask(fused) {
				t.Fatalf("seed %d par %d: combiner left unfused:\n%s", seed, par, fused.Explain())
			}
			if len(withFuse) != len(plain) {
				t.Fatalf("seed %d par %d: partition counts differ: %d vs %d",
					seed, par, len(withFuse), len(plain))
			}
			for pi := range plain {
				if len(withFuse[pi]) != len(plain[pi]) {
					t.Fatalf("seed %d par %d partition %d: %d records fused, %d unfused",
						seed, par, pi, len(withFuse[pi]), len(plain[pi]))
				}
				for i := range plain[pi] {
					if !withFuse[pi][i].Equal(plain[pi][i]) {
						t.Fatalf("seed %d par %d partition %d record %d: fused %v, unfused %v",
							seed, par, pi, i, withFuse[pi][i], plain[pi][i])
					}
				}
			}
		}
	})
}
