package sparklike

import (
	"time"

	"repro/internal/graphgen"
	"repro/internal/metrics"
	"repro/internal/record"
)

// Trace wraps per-iteration statistics for the loop-driven algorithms.
type Trace = metrics.Trace

// PageRank is the Pegasus-style implementation the paper attributes to
// Spark (§6.1: "Spark's implementation follows Pegasus"): join the
// partitioned rank vector with the transition matrix, re-partition for the
// aggregation; every iteration materializes a complete new rank RDD.
func PageRank(ctx *Context, g *graphgen.Graph, iterations int, damping float64, collectTrace bool) (map[int64]float64, *Trace, error) {
	n := float64(g.NumVertices)

	// Transition matrix (A=tid, B=pid, X=1/outdeg), cached in memory.
	outdeg := make([]int64, g.NumVertices)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	matRecs := make([]record.Record, 0, len(g.Edges))
	for _, e := range g.Edges {
		matRecs = append(matRecs, record.Record{A: e.Dst, B: e.Src, X: 1 / float64(outdeg[e.Src])})
	}
	matrix := ctx.Parallelize(matRecs).Cache()

	teleRecs := make([]record.Record, g.NumVertices)
	rankRecs := make([]record.Record, g.NumVertices)
	for i := int64(0); i < g.NumVertices; i++ {
		teleRecs[i] = record.Record{A: i, X: (1 - damping) / n}
		rankRecs[i] = record.Record{A: i, X: 1 / n}
	}
	teleport := ctx.Parallelize(teleRecs).Cache()
	ranks := ctx.Parallelize(rankRecs)

	tr := &Trace{}
	for it := 0; it < iterations; it++ {
		start := time.Now()
		contribs := ranks.Join(matrix, record.KeyA, record.KeyB,
			func(r, a record.Record, emit func(record.Record)) {
				emit(record.Record{A: a.A, X: damping * r.X * a.X})
			})
		ranks = contribs.Union(teleport.shuffleLike(contribs)).
			ReduceByKey(record.KeyA, func(a, b record.Record) record.Record {
				return record.Record{A: a.A, X: a.X + b.X}
			})
		if collectTrace {
			tr.Add(metrics.IterationStat{Iteration: it, Duration: time.Since(start)})
		} else {
			tr.Total += time.Since(start)
		}
	}
	out := make(map[int64]float64, g.NumVertices)
	for _, r := range ranks.Collect() {
		out[r.A] = r.X
	}
	return out, tr, nil
}

// shuffleLike re-partitions r to match the partitioner of o's lineage —
// in this mini engine both just hash by KeyA, so this is a plain
// re-partition kept for API clarity.
func (r *RDD) shuffleLike(o *RDD) *RDD {
	return &RDD{ctx: r.ctx, parts: r.shuffle(record.KeyA, nil)}
}

// CCResult bundles the Connected Components outcome.
type CCResult struct {
	Components map[int64]int64
	Iterations int
	Trace      Trace
}

// ConnectedComponents is the bulk variant (§6.2): every iteration joins
// the full assignment with the edge set, aggregates the minimum candidate
// per vertex, and materializes the complete next assignment.
// maxIterations caps the run (0 = run to convergence), mirroring the
// paper's "first 20 iterations" Webbase experiments.
func ConnectedComponents(ctx *Context, g *graphgen.Graph, maxIterations int, collectTrace bool) (*CCResult, error) {
	und := g.Undirected()
	edgeRecs := make([]record.Record, len(und.Edges))
	for i, e := range und.Edges {
		edgeRecs[i] = record.Record{A: e.Src, B: e.Dst}
	}
	edges := ctx.Parallelize(edgeRecs).Cache()

	stateRecs := make([]record.Record, und.NumVertices)
	for i := int64(0); i < und.NumVertices; i++ {
		stateRecs[i] = record.Record{A: i, B: i}
	}
	state := ctx.Parallelize(stateRecs)

	res := &CCResult{}
	for iter := 0; ; iter++ {
		start := time.Now()
		candidates := state.Join(edges, record.KeyA, record.KeyA,
			func(s, e record.Record, emit func(record.Record)) {
				emit(record.Record{A: e.B, B: s.B})
			})
		next := state.Union(candidates.shuffleLike(state)).
			ReduceByKey(record.KeyA, func(a, b record.Record) record.Record {
				if b.B < a.B {
					return b
				}
				return a
			})
		changes := countChanges(state, next)
		state = next
		res.Iterations = iter + 1
		if collectTrace {
			res.Trace.Add(metrics.IterationStat{Iteration: iter, Duration: time.Since(start)})
		} else {
			res.Trace.Total += time.Since(start)
		}
		if changes == 0 || (maxIterations > 0 && res.Iterations >= maxIterations) {
			break
		}
	}
	res.Components = make(map[int64]int64, und.NumVertices)
	for _, r := range state.Collect() {
		res.Components[r.A] = r.B
	}
	return res, nil
}

// SimIncrementalCC is the paper's "Spark Sim. Incr." variant (Figure 11):
// each entry carries a changed flag (X=1); only changed vertices send
// candidates to their neighbors, but the full assignment is still copied
// into a new RDD every iteration — exploiting the computational
// dependencies without mutable state, and paying the copy cost for the
// unchanged majority.
func SimIncrementalCC(ctx *Context, g *graphgen.Graph, maxIterations int, collectTrace bool) (*CCResult, error) {
	und := g.Undirected()
	edgeRecs := make([]record.Record, len(und.Edges))
	for i, e := range und.Edges {
		edgeRecs[i] = record.Record{A: e.Src, B: e.Dst}
	}
	edges := ctx.Parallelize(edgeRecs).Cache()

	stateRecs := make([]record.Record, und.NumVertices)
	for i := int64(0); i < und.NumVertices; i++ {
		stateRecs[i] = record.Record{A: i, B: i, X: 1} // X=1: changed, as every entry is initially
	}
	state := ctx.Parallelize(stateRecs)

	res := &CCResult{}
	for iter := 0; ; iter++ {
		start := time.Now()
		// Only changed entries message their neighbors...
		msgs := state.Filter(func(r record.Record) bool { return r.X == 1 }).
			Join(edges, record.KeyA, record.KeyA,
				func(s, e record.Record, emit func(record.Record)) {
					emit(record.Record{A: e.B, B: s.B})
				})
		// ...but the whole state is cogrouped and copied forward.
		next := state.CoGroup(msgs, record.KeyA, record.KeyA,
			func(k int64, entries, cands []record.Record, emit func(record.Record)) {
				if len(entries) == 0 {
					return
				}
				cur := entries[0]
				best := cur.B
				for _, c := range cands {
					if c.B < best {
						best = c.B
					}
				}
				changed := 0.0
				if best < cur.B {
					changed = 1
				}
				emit(record.Record{A: k, B: best, X: changed})
			})
		changed := next.Filter(func(r record.Record) bool { return r.X == 1 }).Count()
		state = next
		res.Iterations = iter + 1
		if collectTrace {
			res.Trace.Add(metrics.IterationStat{Iteration: iter, Duration: time.Since(start)})
		} else {
			res.Trace.Total += time.Since(start)
		}
		if changed == 0 || (maxIterations > 0 && res.Iterations >= maxIterations) {
			break
		}
	}
	res.Components = make(map[int64]int64, und.NumVertices)
	for _, r := range state.Collect() {
		res.Components[r.A] = r.B
	}
	return res, nil
}

func countChanges(prev, next *RDD) int64 {
	old := make(map[int64]int64)
	for _, p := range prev.parts {
		for _, r := range p {
			old[r.A] = r.B
		}
	}
	var changes int64
	for _, p := range next.parts {
		for _, r := range p {
			if old[r.A] != r.B {
				changes++
			}
		}
	}
	return changes
}
