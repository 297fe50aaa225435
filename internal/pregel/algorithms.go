package pregel

import (
	"repro/internal/graphgen"
)

// PageRank is the canonical Pregel PageRank (the example in the Pregel
// paper, used by Giraph in §6.1): run a fixed number of supersteps; each
// superstep a vertex sums incoming rank mass, applies the damping, and
// sends rank/outdeg to its targets.
func PageRank(g *graphgen.Graph, iterations int, damping float64, cfg Config) (map[int64]float64, *Result, error) {
	n := float64(g.NumVertices)
	if cfg.Combiner == nil {
		cfg.Combiner = func(a, b Message) Message {
			return Message{Target: a.Target, F: a.F + b.F}
		}
	}
	cfg.MaxSupersteps = iterations + 1
	init := func(v *Vertex) { v.ValueF = 1 / n }
	compute := func(ctx *Context, v *Vertex, msgs []Message) {
		if ctx.Superstep() > 0 {
			var sum float64
			for _, m := range msgs {
				sum += m.F
			}
			v.ValueF = (1-damping)/n + damping*sum
		}
		if ctx.Superstep() < iterations {
			if len(v.Out) > 0 {
				share := v.ValueF / float64(len(v.Out))
				for _, e := range v.Out {
					ctx.Send(Message{Target: e.Target, F: share})
				}
			}
		} else {
			v.VoteToHalt()
		}
	}
	res, err := Run(g, init, compute, cfg)
	if err != nil {
		return nil, nil, err
	}
	ranks := make(map[int64]float64, len(res.Vertices))
	for vid, v := range res.Vertices {
		ranks[vid] = v.ValueF
	}
	return ranks, res, nil
}

// ConnectedComponents is min-label propagation: every vertex keeps the
// smallest component id seen and forwards improvements to its neighbors —
// Pregel's mutable vertex state plus message-driven activation is exactly
// the sparse-dependency exploitation of §6.2. The graph must be
// undirected (call Undirected first for directed inputs).
func ConnectedComponents(g *graphgen.Graph, cfg Config) (map[int64]int64, *Result, error) {
	if cfg.Combiner == nil {
		cfg.Combiner = func(a, b Message) Message {
			if b.I < a.I {
				return b
			}
			return a
		}
	}
	init := func(v *Vertex) { v.ValueI = v.ID }
	compute := func(ctx *Context, v *Vertex, msgs []Message) {
		improved := ctx.Superstep() == 0
		for _, m := range msgs {
			if m.I < v.ValueI {
				v.ValueI = m.I
				improved = true
			}
		}
		if improved {
			for _, e := range v.Out {
				ctx.Send(Message{Target: e.Target, I: v.ValueI})
			}
		}
		v.VoteToHalt()
	}
	res, err := Run(g.Undirected(), init, compute, cfg)
	if err != nil {
		return nil, nil, err
	}
	comps := make(map[int64]int64, len(res.Vertices))
	for vid, v := range res.Vertices {
		comps[vid] = v.ValueI
	}
	return comps, res, nil
}
