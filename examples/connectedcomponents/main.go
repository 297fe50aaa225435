// Connected Components three ways — bulk, incremental (CoGroup), and
// microsteps (Match, direct merge) — on the public API, reproducing the
// paper's headline comparison (§6.2): the incremental variants touch only
// the "hot" portion of the graph and win by a growing margin.
package main

import (
	"fmt"
	"log"
	"time"

	spinflow "repro"
)

// undirected symmetrizes the edge list.
func undirected(g *spinflow.Graph) []spinflow.Record {
	seen := make(map[[2]int64]bool, 2*len(g.Edges))
	out := make([]spinflow.Record, 0, 2*len(g.Edges))
	add := func(s, d int64) {
		if s == d || seen[[2]int64{s, d}] {
			return
		}
		seen[[2]int64{s, d}] = true
		out = append(out, spinflow.Record{A: s, B: d})
	}
	for _, e := range g.Edges {
		add(e.Src, e.Dst)
		add(e.Dst, e.Src)
	}
	return out
}

// buildIncremental assembles the Figure-5 incremental iteration. The
// useCoGroup flag selects the batch (CoGroup) or per-record (Match)
// update variant.
func buildIncremental(edges []spinflow.Record, numVertices int64, useCoGroup bool) (spinflow.IncrementalSpec, []spinflow.Record, []spinflow.Record) {
	p := spinflow.NewPlan()
	w := p.IterationPlaceholder("W", int64(len(edges)))

	var delta *spinflow.Node
	if useCoGroup {
		delta = p.SolutionCoGroupNode("update", w, spinflow.KeyA,
			func(vid int64, cands []spinflow.Record, s spinflow.Record, found bool, out spinflow.Emitter) {
				min := cands[0].B
				for _, c := range cands[1:] {
					if c.B < min {
						min = c.B
					}
				}
				if found && min < s.B {
					out.Emit(spinflow.Record{A: vid, B: min})
				}
			})
	} else {
		delta = p.SolutionJoinNode("update", w, spinflow.KeyA,
			func(c, s spinflow.Record, found bool, out spinflow.Emitter) {
				if found && c.B < s.B {
					out.Emit(spinflow.Record{A: c.A, B: c.B})
				}
			})
	}
	delta.Preserve(0, spinflow.KeyA)
	d := p.SinkNode("D", delta)

	n := p.SourceOf("N", edges)
	prop := p.MatchNode("toNeighbors", delta, n, spinflow.KeyA, spinflow.KeyA,
		func(dr, er spinflow.Record, out spinflow.Emitter) {
			out.Emit(spinflow.Record{A: er.B, B: dr.B})
		})
	w2 := p.SinkNode("W'", prop)

	spec := spinflow.IncrementalSpec{
		Plan: p, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: spinflow.KeyA, WorksetKey: spinflow.KeyA,
		Comparator: func(a, b spinflow.Record) int {
			switch {
			case a.B < b.B:
				return 1
			case a.B > b.B:
				return -1
			}
			return 0
		},
	}
	s0 := make([]spinflow.Record, numVertices)
	for i := int64(0); i < numVertices; i++ {
		s0[i] = spinflow.Record{A: i, B: i}
	}
	w0 := make([]spinflow.Record, len(edges))
	for i, e := range edges {
		w0[i] = spinflow.Record{A: e.B, B: e.A}
	}
	return spec, s0, w0
}

// buildBulk assembles the bulk variant: recompute every vertex's minimum
// every pass.
func buildBulk(edges []spinflow.Record, numVertices int64) (spinflow.BulkSpec, []spinflow.Record) {
	p := spinflow.NewPlan()
	state := p.IterationPlaceholder("S", numVertices)
	n := p.SourceOf("N", edges)
	send := p.MatchNode("send", state, n, spinflow.KeyA, spinflow.KeyA,
		func(s, e spinflow.Record, out spinflow.Emitter) {
			out.Emit(spinflow.Record{A: e.B, B: s.B})
		})
	send.EstRecords = int64(len(edges))
	all := p.UnionNode("cands", send, state)
	min := p.ReduceNode("min", all, spinflow.KeyA,
		func(vid int64, g []spinflow.Record, out spinflow.Emitter) {
			m := g[0].B
			for _, r := range g[1:] {
				if r.B < m {
					m = r.B
				}
			}
			out.Emit(spinflow.Record{A: vid, B: m})
		})
	min.Combinable = true
	min.EstRecords = numVertices
	o := p.SinkNode("O", min)
	spec := spinflow.BulkSpec{
		Plan: p, Input: state, Output: o,
		Converged: func(prev, next []spinflow.Record) bool {
			m := make(map[int64]int64, len(prev))
			for _, r := range prev {
				m[r.A] = r.B
			}
			for _, r := range next {
				if m[r.A] != r.B {
					return false
				}
			}
			return true
		},
	}
	s0 := make([]spinflow.Record, numVertices)
	for i := int64(0); i < numVertices; i++ {
		s0[i] = spinflow.Record{A: i, B: i}
	}
	return spec, s0
}

func components(recs []spinflow.Record) int {
	set := map[int64]bool{}
	for _, r := range recs {
		set[r.B] = true
	}
	return len(set)
}

func main() {
	g := spinflow.LoadDataset(spinflow.DatasetFOAF, 1.0)
	edges := undirected(g)
	cfg := spinflow.Config{Parallelism: 4}
	fmt.Printf("Connected Components on %s: %d vertices, %d undirected edges\n",
		g.Name, g.NumVertices, len(edges))

	start := time.Now()
	bulkSpec, bs0 := buildBulk(edges, g.NumVertices)
	bulk, err := spinflow.RunBulk(bulkSpec, bs0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bulkTime := time.Since(start)
	fmt.Printf("  bulk:               %8v  %3d iterations  %d components\n",
		bulkTime.Round(time.Millisecond), bulk.Iterations, components(bulk.Solution))

	start = time.Now()
	spec, s0, w0 := buildIncremental(edges, g.NumVertices, true)
	incr, err := spinflow.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	incrTime := time.Since(start)
	fmt.Printf("  incremental (CG):   %8v  %3d supersteps  %d components\n",
		incrTime.Round(time.Millisecond), incr.Supersteps, components(incr.Solution))

	start = time.Now()
	mspec, ms0, mw0 := buildIncremental(edges, g.NumVertices, false)
	micro, err := spinflow.RunMicrostep(mspec, ms0, mw0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	microTime := time.Since(start)
	fmt.Printf("  microsteps (Match): %8v  %d microsteps    %d components\n",
		microTime.Round(time.Millisecond), micro.Microsteps, components(micro.Solution))

	fmt.Printf("\nspeedup over bulk: incremental %.1fx, microsteps %.1fx\n",
		float64(bulkTime)/float64(incrTime), float64(bulkTime)/float64(microTime))
}
