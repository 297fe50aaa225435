package harness

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/obs"
)

// Trace runs one instrumented scenario under a telemetry registry and
// returns the reassembled timeline document (`spinflow trace <scenario>`
// writes it to TRACE_<scenario>.json). Scenarios:
//
//   - "cc": the incremental Connected Components fixpoint — superstep,
//     operator, and merge spans from the plain driver.
//   - "live": a maintained CC view absorbing mutation batches — the cold
//     build's supersteps plus flush spans from the serving layer.
//   - "distributed": a 2-process CC job — spans from both hosts under one
//     trace ID, reassembled by the coordinator (the workers ship theirs
//     back over the control plane at collect time).
//
// The per-superstep table (compute vs barrier vs ship vs merge) renders
// to Options.Out.
func Trace(o Options, scenario string) (*obs.TimelineDoc, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	reg := o.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	var (
		id    obs.TraceID
		spans []obs.Span
		err   error
	)
	switch scenario {
	case "cc":
		id, err = traceCC(o, reg)
	case "live":
		id, err = traceLive(o, reg)
	case "distributed":
		id, spans, err = traceDistributed(o, reg)
	default:
		err = fmt.Errorf("harness: unknown trace scenario %q (want cc, live, or distributed)", scenario)
	}
	if err != nil {
		return nil, err
	}
	if spans == nil {
		spans = reg.Trace().SpansFor(id)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("harness: scenario %q recorded no spans", scenario)
	}

	doc := obs.NewTimelineDoc(scenario, id, spans)
	o.printf("Trace %s — id %s, %d spans across %d host(s)\n",
		scenario, doc.Trace, len(doc.Spans), doc.Hosts)
	obs.WriteTimeline(o.Out, doc.Rows)
	o.printf("\n")
	return &doc, nil
}

// traceGraph is the scenarios' shared workload: a uniform graph big
// enough that supersteps take measurable time at any scale.
func traceGraph(o Options, name string) *graphgen.Graph {
	n := scaled(o.Scale, 240)
	return graphgen.Uniform(name, n, 2*n, 0x7ACE)
}

// traceCC runs incremental CC under the registry and returns the trace ID.
func traceCC(o Options, reg *obs.Registry) (obs.TraceID, error) {
	spec, s0, w0 := algorithms.CCIncrementalSpec(traceGraph(o, "trace-cc"), algorithms.CCMatch)
	id := obs.NewTraceID()
	cfg := iterative.Config{
		Parallelism: o.Parallelism,
		Obs:         reg, TraceID: id, TraceLabel: "cc",
	}
	_, err := iterative.RunIncremental(spec, s0, w0, cfg)
	return id, err
}

// traceLive builds a maintained CC view and absorbs a few mutation
// batches, so the trace holds cold-build supersteps plus flush spans.
func traceLive(o Options, reg *obs.Registry) (obs.TraceID, error) {
	g := traceGraph(o, "trace-live")
	initial := make([]live.Mutation, len(g.Edges))
	for i, e := range g.Edges {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	v, err := live.NewView("trace", live.CC(), initial, live.ViewConfig{
		Config: iterative.Config{Parallelism: o.Parallelism, Obs: reg},
	})
	if err != nil {
		return 0, err
	}
	defer v.Close()
	for round, batch := range [][]live.Mutation{
		mutationBatch(g, 16, 0x7ACE1),
		mutationBatch(g, 16, 0x7ACE2),
		mutationBatch(g, 16, 0x7ACE3),
	} {
		if err := v.Mutate(batch...); err != nil {
			return 0, fmt.Errorf("harness: trace live round %d: %w", round, err)
		}
		if err := v.Flush(); err != nil {
			return 0, fmt.Errorf("harness: trace live flush %d: %w", round, err)
		}
	}
	v.Query(1)
	return v.TraceID(), nil
}

// traceDistributed runs a 2-process CC job with telemetry on both sides
// and returns the reassembled cross-host spans.
func traceDistributed(o Options, reg *obs.Registry) (obs.TraceID, []obs.Span, error) {
	if o.WorkerObs == nil {
		// In-process workers need a registry to record into; external
		// worker processes (WorkerBinary/WorkerAddrs) always own one.
		o.WorkerObs = obs.NewRegistry()
	}
	w, err := startWorker(o)
	if err != nil {
		return 0, nil, err
	}
	defer w.stop()
	g := traceGraph(o, "trace-distrib")
	js := distrib.JobSpec{
		Algorithm: "cc", GraphKind: "uniform",
		GraphN: g.NumVertices, GraphM: 2 * g.NumVertices,
		Seed: 0x7ACE, Parallelism: o.Parallelism,
	}
	res, err := live.RunJob(js, []string{w.addr}, reg)
	if err != nil {
		return 0, nil, err
	}
	if len(res.Spans) == 0 {
		return 0, nil, fmt.Errorf("harness: distributed trace returned no spans")
	}
	return res.Spans[0].Trace, res.Spans, nil
}

// liveRNG is the deterministic xorshift used to derive mutation batches.
type liveRNG struct{ s uint64 }

func (r *liveRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *liveRNG) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// mutationBatch derives n deterministic edge inserts: half connect
// existing vertices (often no-ops inside the giant component), half
// attach brand-new vertices (guaranteed label propagation) — the arrival
// pattern of a growing social graph.
func mutationBatch(g *graphgen.Graph, n int, seed uint64) []live.Mutation {
	rng := &liveRNG{s: seed}
	out := make([]live.Mutation, 0, n)
	nextVertex := g.NumVertices
	for len(out) < n {
		s := rng.intn(g.NumVertices)
		var d int64
		if len(out)%2 == 0 {
			d = nextVertex
			nextVertex++
		} else {
			d = rng.intn(g.NumVertices)
			if s == d {
				continue
			}
		}
		out = append(out, live.InsertEdge(s, d))
	}
	return out
}
