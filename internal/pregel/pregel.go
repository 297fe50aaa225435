// Package pregel is a from-scratch vertex-centric BSP engine in the style
// of Google's Pregel / Apache Giraph — the specialized graph system the
// paper compares against (§6: "Giraph is an implementation of Google's
// Pregel"). Vertices hold mutable state, exchange messages along edges,
// and vote to halt; supersteps are globally synchronized; an optional
// combiner pre-aggregates messages at the sender.
//
// The paper argues incremental iterations subsume this model (§7.2); the
// benchmarks run the same algorithms here and on the dataflow engine.
package pregel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graphgen"
	"repro/internal/metrics"
	"repro/internal/record"
)

// Message is a value sent to a target vertex.
type Message struct {
	Target int64
	I      int64
	F      float64
}

// Vertex is one graph vertex with mutable state.
type Vertex struct {
	ID     int64
	ValueI int64
	ValueF float64
	// Out lists the targets of outgoing edges.
	Out []EdgeTo
	// halted is the vote-to-halt flag; incoming messages clear it.
	halted bool
}

// EdgeTo is an outgoing edge.
type EdgeTo struct {
	Target int64
}

// Context gives a compute function access to the superstep machinery.
type Context struct {
	worker    *worker
	superstep int
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// Send delivers a message to the target vertex in the next superstep.
func (c *Context) Send(m Message) { c.worker.send(m) }

// ComputeFn is the vertex program, invoked for every active vertex with
// the messages received in the previous superstep. Calling v's VoteToHalt
// deactivates the vertex until a message arrives.
type ComputeFn func(ctx *Context, v *Vertex, msgs []Message)

// VoteToHalt deactivates the vertex until it receives a message.
func (v *Vertex) VoteToHalt() { v.halted = true }

// CombineFn merges two messages for the same target (e.g. min or sum),
// applied sender-side like Pregel combiners.
type CombineFn func(a, b Message) Message

// Config configures a run.
type Config struct {
	// Parallelism is the number of workers (vertex partitions).
	Parallelism int
	// MaxSupersteps bounds the run (default 10000).
	MaxSupersteps int
	// Combiner optionally pre-aggregates messages per target.
	Combiner CombineFn
	// Metrics receives counters (messages = WorksetElements).
	Metrics *metrics.Counters
	// CollectTrace records per-superstep statistics.
	CollectTrace bool
}

// Result is the outcome of a run.
type Result struct {
	// Vertices holds the final vertex states, indexed by partition.
	Vertices map[int64]*Vertex
	// Supersteps is the number of executed supersteps.
	Supersteps int
	// Trace holds per-superstep stats when CollectTrace is set.
	Trace metrics.Trace
}

// worker owns one vertex partition.
type worker struct {
	job     *job
	part    int
	verts   map[int64]*Vertex
	inbox   map[int64][]Message // messages for the current superstep
	nextOut []map[int64][]Message
}

type job struct {
	cfg     Config
	workers []*worker
}

func (w *worker) send(m Message) {
	if w.job.cfg.Metrics != nil {
		w.job.cfg.Metrics.WorksetElements.Add(1)
	}
	part := record.PartitionOf(m.Target, len(w.job.workers))
	if part != w.part && w.job.cfg.Metrics != nil {
		w.job.cfg.Metrics.RecordsShipped.Add(1)
	}
	box := w.nextOut[part]
	if c := w.job.cfg.Combiner; c != nil {
		if prev, ok := box[m.Target]; ok && len(prev) == 1 {
			box[m.Target] = []Message{c(prev[0], m)}
			return
		}
	}
	box[m.Target] = append(box[m.Target], m)
}

// Run executes a vertex program over the graph until every vertex has
// halted and no messages are in flight (or MaxSupersteps passes).
// init prepares each vertex's initial value.
func Run(g *graphgen.Graph, init func(*Vertex), compute ComputeFn, cfg Config) (*Result, error) {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 10000
	}
	j := &job{cfg: cfg, workers: make([]*worker, cfg.Parallelism)}
	for p := range j.workers {
		j.workers[p] = &worker{
			job:   j,
			part:  p,
			verts: make(map[int64]*Vertex),
			inbox: make(map[int64][]Message),
		}
	}
	// Load vertices and edges into their partitions.
	for vid := int64(0); vid < g.NumVertices; vid++ {
		v := &Vertex{ID: vid}
		j.workers[record.PartitionOf(vid, cfg.Parallelism)].verts[vid] = v
	}
	for _, e := range g.Edges {
		part := record.PartitionOf(e.Src, cfg.Parallelism)
		v := j.workers[part].verts[e.Src]
		v.Out = append(v.Out, EdgeTo{Target: e.Dst})
	}
	for _, w := range j.workers {
		for _, v := range w.verts {
			init(v)
		}
	}

	res := &Result{Vertices: make(map[int64]*Vertex, g.NumVertices)}
	for step := 0; step < cfg.MaxSupersteps; step++ {
		start := time.Now()
		var before metrics.Snapshot
		if cfg.Metrics != nil {
			before = cfg.Metrics.Snapshot()
		}

		// Compute phase: workers process active vertices in parallel.
		var wg sync.WaitGroup
		anyActive := make([]bool, cfg.Parallelism)
		for _, w := range j.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.nextOut = make([]map[int64][]Message, cfg.Parallelism)
				for p := range w.nextOut {
					w.nextOut[p] = make(map[int64][]Message)
				}
				ctx := &Context{worker: w, superstep: step}
				for vid, v := range w.verts {
					msgs := w.inbox[vid]
					if len(msgs) > 0 {
						v.halted = false
					}
					if v.halted {
						continue
					}
					anyActive[w.part] = true
					if cfg.Metrics != nil {
						cfg.Metrics.UDFInvocations.Add(1)
						cfg.Metrics.SolutionAccesses.Add(1)
					}
					compute(ctx, v, msgs)
				}
			}(w)
		}
		wg.Wait()
		res.Supersteps = step + 1

		// Barrier + message delivery: route every worker's outboxes.
		delivered := 0
		for _, dst := range j.workers {
			dst.inbox = make(map[int64][]Message)
		}
		for _, src := range j.workers {
			for p, box := range src.nextOut {
				for target, msgs := range box {
					j.workers[p].inbox[target] = append(j.workers[p].inbox[target], msgs...)
					delivered += len(msgs)
				}
			}
		}

		if cfg.CollectTrace {
			st := metrics.IterationStat{Iteration: step, Duration: time.Since(start)}
			if cfg.Metrics != nil {
				st.Work = cfg.Metrics.Snapshot().Sub(before)
			}
			res.Trace.Add(st)
		}

		active := false
		for _, a := range anyActive {
			active = active || a
		}
		if !active && delivered == 0 {
			collect(j, res)
			return res, nil
		}
		if delivered == 0 && !active {
			break
		}
	}
	// Either converged on the last allowed superstep or ran out of budget;
	// callers with fixed-superstep programs (PageRank) land here normally.
	collect(j, res)
	allHalted := true
	for _, w := range j.workers {
		for _, v := range w.verts {
			allHalted = allHalted && v.halted
		}
	}
	if !allHalted {
		return res, fmt.Errorf("pregel: not converged after %d supersteps", cfg.MaxSupersteps)
	}
	return res, nil
}

func collect(j *job, res *Result) {
	for _, w := range j.workers {
		for vid, v := range w.verts {
			res.Vertices[vid] = v
		}
	}
}
