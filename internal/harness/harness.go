// Package harness regenerates the paper's evaluation: one function per
// table and figure (Table 1/2, Figures 1/2/4/7/8/9/10/11/12), each running
// the corresponding workload on the relevant engines and printing the rows
// or series the paper reports. README's figure notes ("About the figures
// below") say which readings the regression benchmark tracks and which
// are one-off.
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algorithms"
	"repro/internal/fixpoint"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// Options configures an experiment run.
type Options struct {
	// Scale sizes the synthetic datasets (1.0 = default laptop scale).
	Scale graphgen.Scale
	// Parallelism is the partition count for all engines.
	Parallelism int
	// PageRankIterations is the fixed iteration count (paper: 20).
	PageRankIterations int
	// Out receives the rendered tables (nil = silent).
	Out io.Writer
	// WorkerBinary is the spinflow binary to spawn worker processes from
	// in the Distributed scenario. Empty runs the workers in-process
	// (same code paths, real TCP, one OS process) — the form `go test`
	// uses, since the test binary has no worker mode.
	WorkerBinary string
	// WorkerAddrs are control addresses of already-running workers for
	// the Distributed scenario to mesh with instead of starting its own
	// (it will not stop them). Takes precedence over WorkerBinary.
	WorkerAddrs []string
	// WorkerObs is the registry handed to in-process distributed workers
	// (each OS-process worker owns its own). Only used when the
	// Distributed/Trace scenarios start an in-process worker.
	WorkerObs *obs.Registry
}

func (o Options) normalized() Options {
	if o.Scale == 0 {
		o.Scale = graphgen.ScaleDefault
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	if o.PageRankIterations <= 0 {
		o.PageRankIterations = 20
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Validate rejects option values that normalized() would otherwise
// silently replace with defaults: a negative scale, parallelism, or
// iteration count is a caller bug, not a request for the default. Every
// scenario entry point returns this error instead of ignoring it.
func (o Options) Validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("harness: negative scale %v", float64(o.Scale))
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("harness: negative parallelism %d", o.Parallelism)
	}
	if o.PageRankIterations < 0 {
		return fmt.Errorf("harness: negative PageRankIterations %d", o.PageRankIterations)
	}
	return nil
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// Table1Result reports the three Table-1 iteration templates on the
// Figure-1 sample graph.
type Table1Result struct {
	FixpointIterations    int
	IncrementalSupersteps int
	Microsteps            int
	Trace                 []fixpoint.Assignment
}

// Table1 runs FIXPOINT-CC, INCR-CC and MICRO-CC on the Figure-1 graph and
// prints the Kleene chain of partial solutions.
func Table1(o Options) (*Table1Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	adj := fixpoint.Figure1Graph()
	res := &Table1Result{}

	chain, err := fixpoint.TraceFixpointCC(adj, 100)
	if err != nil {
		return nil, err
	}
	res.Trace = chain

	_, it, err := fixpoint.FixpointCC(adj, 100)
	if err != nil {
		return nil, err
	}
	res.FixpointIterations = it
	_, inc, err := fixpoint.IncrementalCC(adj, 100)
	if err != nil {
		return nil, err
	}
	res.IncrementalSupersteps = inc
	_, micro, err := fixpoint.MicrostepCC(adj, 1<<30)
	if err != nil {
		return nil, err
	}
	res.Microsteps = micro

	o.printf("Table 1 / Figure 1 — iteration templates on the 9-vertex sample graph\n")
	for i, s := range chain {
		o.printf("  S%d: %v\n", i, s)
	}
	o.printf("  FIXPOINT-CC iterations:     %d\n", res.FixpointIterations)
	o.printf("  INCR-CC supersteps:         %d\n", res.IncrementalSupersteps)
	o.printf("  MICRO-CC microsteps:        %d\n\n", res.Microsteps)
	return res, nil
}

// DatasetStats is one Table-2 row.
type DatasetStats struct {
	Name      string
	Vertices  int64
	Edges     int64
	AvgDegree float64
}

// Table2 prints the dataset properties (paper Table 2) for the scaled
// synthetic stand-ins.
func Table2(o Options) ([]DatasetStats, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	o.printf("Table 2 — dataset properties (synthetic stand-ins, scale %.2f)\n", float64(o.Scale))
	o.printf("  %-12s %12s %14s %10s\n", "DataSet", "Vertices", "Edges", "Avg.Deg")
	var out []DatasetStats
	for _, d := range graphgen.AllTable2() {
		g := graphgen.Load(d, o.Scale)
		st := DatasetStats{Name: g.Name, Vertices: g.NumVertices, Edges: g.NumEdges(), AvgDegree: g.AvgDegree()}
		out = append(out, st)
		o.printf("  %-12s %12d %14d %10.2f\n", st.Name, st.Vertices, st.Edges, st.AvgDegree)
	}
	o.printf("\n")
	return out, nil
}

// Figure2Row is one iteration of the effective-work experiment.
type Figure2Row struct {
	Iteration         int
	VerticesInspected int64
	VerticesChanged   int64
	WorksetElements   int64
}

// Figure2 runs incremental Connected Components on the FOAF graph and
// reports the per-iteration effective work (vertices inspected/changed,
// workset entries) — the decaying curves of Figure 2.
func Figure2(o Options) ([]Figure2Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.FOAF(o.Scale)
	var m metrics.Counters
	cfg := iterative.Config{Parallelism: o.Parallelism, Metrics: &m, CollectTrace: true}
	_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
	if err != nil {
		return nil, err
	}
	var rows []Figure2Row
	o.printf("Figure 2 — effective work of incremental Connected Components on %s (V=%d E=%d)\n",
		g.Name, g.NumVertices, g.NumEdges())
	o.printf("  %-9s %12s %12s %12s\n", "iter", "inspected", "changed", "workset")
	for _, st := range res.Trace.Iterations {
		row := Figure2Row{
			Iteration:         st.Iteration,
			VerticesInspected: st.Work.SolutionAccesses,
			VerticesChanged:   st.Work.SolutionUpdates,
			WorksetElements:   st.Work.WorksetElements,
		}
		rows = append(rows, row)
		o.printf("  %-9d %12d %12d %12d\n", row.Iteration, row.VerticesInspected, row.VerticesChanged, row.WorksetElements)
	}
	o.printf("\n")
	return rows, nil
}

// Figure4Result captures the optimizer's plan alternatives and choice.
type Figure4Result struct {
	// BroadcastPlan/PartitionPlan are the two forced Figure-4 variants
	// on the web graph, with their estimated costs.
	BroadcastPlan, PartitionPlan string
	BroadcastCost, PartitionCost float64
	// AutoPlan and AutoCost describe the free choice on the web graph.
	AutoPlan string
	AutoCost float64
	// AutoTinyVectorUsesBroadcast reports the choice when the rank vector
	// is tiny relative to the matrix (the Mahout "small model" case).
	AutoTinyVectorUsesBroadcast bool
	// AutoHugeVectorUsesBroadcast reports the choice when the vector is
	// as large as the matrix (must be false).
	AutoHugeVectorUsesBroadcast bool
}

func usesBroadcast(p *optimizer.PhysPlan) bool {
	for _, n := range p.Nodes {
		for _, e := range n.Inputs {
			if e.Ship == optimizer.ShipBroadcast {
				return true
			}
		}
	}
	return false
}

// Figure4 shows the two PageRank execution plans of Figure 4 and the
// optimizer's automatic choice as a function of the rank-vector size.
// With combiners and loop-closed partitioning, the two plans are
// near-tied at web-graph density; the broadcast plan wins clearly only
// when the model is much smaller than the matrix (the regime sweep).
func Figure4(o Options) (*Figure4Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	res := &Figure4Result{}
	g := graphgen.Wikipedia(o.Scale)

	optimizeVariant := func(variant algorithms.PlanVariant, vecEst int64) (*optimizer.PhysPlan, error) {
		spec, _ := algorithms.PageRankSpecVariant(g, 20, algorithms.DefaultDamping, 0, variant)
		if vecEst > 0 {
			spec.Input.EstRecords = vecEst
		}
		return optimizer.Optimize(spec.Plan, optimizer.Options{
			Parallelism:        o.Parallelism,
			ExpectedIterations: 20,
			Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
			JoinHints:          spec.JoinHints,
		})
	}

	bc, err := optimizeVariant(algorithms.PlanBroadcast, 0)
	if err != nil {
		return nil, err
	}
	pt, err := optimizeVariant(algorithms.PlanPartition, 0)
	if err != nil {
		return nil, err
	}
	auto, err := optimizeVariant(algorithms.PlanAuto, 0)
	if err != nil {
		return nil, err
	}
	res.BroadcastPlan, res.BroadcastCost = bc.Explain(), bc.Cost
	res.PartitionPlan, res.PartitionCost = pt.Explain(), pt.Cost
	res.AutoPlan, res.AutoCost = auto.Explain(), auto.Cost

	// Regime sweep: a tiny model broadcasts (Fig. 4 left / Mahout); a
	// model as large as the matrix must not (Fig. 4 right / Pegasus).
	tiny, err := optimizeVariant(algorithms.PlanAuto, g.NumEdges()/200)
	if err != nil {
		return nil, err
	}
	res.AutoTinyVectorUsesBroadcast = usesBroadcast(tiny)
	huge, err := optimizeVariant(algorithms.PlanAuto, g.NumEdges())
	if err != nil {
		return nil, err
	}
	res.AutoHugeVectorUsesBroadcast = usesBroadcast(huge)

	o.printf("Figure 4 — PageRank execution plans on %s (|V|=%d, |E|=%d, 20 iterations)\n",
		g.Name, g.NumVertices, g.NumEdges())
	o.printf("forced broadcast plan (Fig. 4 left), cost %.0f:\n%s\n", res.BroadcastCost, res.BroadcastPlan)
	o.printf("forced partition plan (Fig. 4 right), cost %.0f:\n%s\n", res.PartitionCost, res.PartitionPlan)
	o.printf("optimizer's choice, cost %.0f:\n%s\n", res.AutoCost, res.AutoPlan)
	o.printf("regime sweep: tiny rank vector broadcasts = %v; huge rank vector broadcasts = %v\n\n",
		res.AutoTinyVectorUsesBroadcast, res.AutoHugeVectorUsesBroadcast)
	return res, nil
}

// EngineTiming is one (engine, dataset) measurement.
type EngineTiming struct {
	Engine  string
	Dataset string
	Total   time.Duration
	// PerIteration is filled by the per-iteration experiments.
	PerIteration []time.Duration
	// Messages is filled by experiments that track workset/message counts.
	Messages []int64
	// Iterations executed (CC experiments).
	Iterations int
}

func (o Options) printTimings(title string, ts []EngineTiming) {
	o.printf("%s\n", title)
	o.printf("  %-14s %-24s %12s %8s\n", "dataset", "engine", "total(ms)", "iters")
	for _, t := range ts {
		o.printf("  %-14s %-24s %12.1f %8d\n", t.Dataset, t.Engine, float64(t.Total.Microseconds())/1000, t.Iterations)
	}
	o.printf("\n")
}
