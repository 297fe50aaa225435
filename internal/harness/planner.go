package harness

import (
	"math"
	goruntime "runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// PlannerRow is one scenario row of the planning-fast-path comparison:
// the cost-based enumerator against the greedy zero-statistics planner
// and against a plan-cache hit, on the same logical plan.
type PlannerRow struct {
	Scenario string `json:"scenario"`
	// Nodes is the logical plan size.
	Nodes int `json:"nodes"`
	// Best single-plan latency over the rep loop, microseconds. The
	// minimum is the interference-robust estimator at this timescale: a
	// GC pause or scheduler preemption landing inside one rep inflates
	// medians by multiples, while the best rep reflects what the planner
	// itself costs.
	CostUS   float64 `json:"cost_us"`
	GreedyUS float64 `json:"greedy_us"`
	CachedUS float64 `json:"cached_us"`
	// Speedup is cost/greedy; CacheSpeedup is cost/cached — the factor a
	// mid-run re-optimization gets back from skipping enumeration, and
	// what skipping planning entirely would buy.
	Speedup      float64 `json:"speedup"`
	CacheSpeedup float64 `json:"cache_speedup"`
}

// PlannerScenario is the planning-fast-path scenario's outcome.
type PlannerScenario struct {
	Rows []PlannerRow `json:"rows"`
	// MinSpeedup is the smallest cost/greedy ratio over the table (the
	// "greedy plans ≥10× faster on every scenario" acceptance bar).
	MinSpeedup float64 `json:"min_speedup"`
	// MinCacheSpeedup is the smallest cost/cached ratio over the table.
	MinCacheSpeedup float64 `json:"min_cache_speedup"`
}

// plannerCase is one logical plan plus the planning options its driver
// would pass — identical inputs for all three planning modes.
type plannerCase struct {
	name string
	plan *dataflow.Plan
	opt  optimizer.Options
}

// plannerCases builds the four algorithm plans the scenario measures,
// with exactly the optimizer options the iterative drivers use for them.
func plannerCases(o Options) []plannerCase {
	var cases []plannerCase

	prSpec, _ := algorithms.PageRankSpec(graphgen.Wikipedia(o.Scale), o.PageRankIterations,
		algorithms.DefaultDamping, 0)
	cases = append(cases, plannerCase{"pagerank", prSpec.Plan, optimizer.Options{
		Parallelism:        o.Parallelism,
		ExpectedIterations: o.PageRankIterations,
		Feedback:           map[int]int{prSpec.Input.ID: prSpec.Output.ID},
		JoinHints:          prSpec.JoinHints,
	}})

	incremental := func(name string, spec iterative.IncrementalSpec) {
		cases = append(cases, plannerCase{name, spec.Plan, optimizer.Options{
			Parallelism:        o.Parallelism,
			ExpectedIterations: 10,
			PlaceholderProps: map[int]optimizer.Props{
				spec.Workset.ID: {Part: record.KeyID(spec.WorksetKey)},
			},
			SinkPartition: map[int]record.KeyFunc{
				spec.DeltaSink.ID:   spec.SolutionKey,
				spec.WorksetSink.ID: spec.WorksetKey,
			},
			Feedback:  map[int]int{spec.Workset.ID: spec.WorksetSink.ID},
			JoinHints: spec.JoinHints,
		}})
	}

	foaf := graphgen.FOAF(o.Scale)
	ccSpec, _, _ := algorithms.CCIncrementalSpec(foaf, algorithms.CCCoGroup)
	incremental("cc", ccSpec)

	und := foaf.Undirected()
	we := make([]algorithms.WeightedEdge, len(und.Edges))
	for i, e := range und.Edges {
		we[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: float64(1 + (e.Src*7+e.Dst*13)%4)}
	}
	ssspSpec, _, _ := algorithms.SSSPSpec(we, 0)
	incremental("sssp", ssspSpec)

	centers := []algorithms.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}
	points := algorithms.GeneratePoints(centers, 200, 1.5, 77)
	kmSpec, _ := algorithms.KMeansSpec(points, centers, 20)
	cases = append(cases, plannerCase{"kmeans", kmSpec.Plan, optimizer.Options{
		Parallelism:        o.Parallelism,
		ExpectedIterations: 20,
		Feedback:           map[int]int{kmSpec.Input.ID: kmSpec.Output.ID},
		JoinHints:          kmSpec.JoinHints,
	}})
	return cases
}

// bestPlanUS runs one planning call `reps` times and returns the best
// latency in microseconds. A fresh GC cycle ahead of the loop keeps
// collections triggered by earlier measurements from spilling into this
// one.
func bestPlanUS(reps int, f func() error) (float64, error) {
	goruntime.GC()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3, nil
}

// Planner runs the planning-fast-path scenario: each algorithm plan is
// optimized by the cost-based enumerator, by the greedy zero-statistics
// planner, and through a warm PlanCache, and the best observed latencies are
// compared. Plan equivalence (byte-identical fixpoints across planners)
// is asserted by the difftest suite; this scenario measures only latency.
func Planner(o Options) (*PlannerScenario, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	res := &PlannerScenario{}
	const reps = 75

	o.printf("Planning fast path — cost-based enumerator vs greedy planner vs plan-cache hit (best of %d)\n", reps)
	o.printf("  %-9s %6s %11s %11s %11s %9s %9s\n",
		"scenario", "nodes", "cost(µs)", "greedy(µs)", "cached(µs)", "speedup", "cache.spd")

	for _, c := range plannerCases(o) {
		row := PlannerRow{Scenario: c.name, Nodes: len(c.plan.Nodes())}

		costOpt := c.opt
		costOpt.Planner = optimizer.PlannerCost
		var err error
		if row.CostUS, err = bestPlanUS(reps, func() error {
			_, e := optimizer.Optimize(c.plan, costOpt)
			return e
		}); err != nil {
			return nil, err
		}

		greedyOpt := c.opt
		greedyOpt.Planner = optimizer.PlannerGreedy
		greedyOpt.Fuse = true
		if row.GreedyUS, err = bestPlanUS(reps, func() error {
			_, e := optimizer.Optimize(c.plan, greedyOpt)
			return e
		}); err != nil {
			return nil, err
		}

		cache := optimizer.NewPlanCache()
		if _, _, err := cache.Optimize(c.plan, greedyOpt, 1000); err != nil {
			return nil, err
		}
		if row.CachedUS, err = bestPlanUS(reps, func() error {
			_, _, e := cache.Optimize(c.plan, greedyOpt, 1000)
			return e
		}); err != nil {
			return nil, err
		}

		row.Speedup = row.CostUS / row.GreedyUS
		row.CacheSpeedup = row.CostUS / row.CachedUS
		res.Rows = append(res.Rows, row)
		if res.MinSpeedup == 0 || row.Speedup < res.MinSpeedup {
			res.MinSpeedup = row.Speedup
		}
		if res.MinCacheSpeedup == 0 || row.CacheSpeedup < res.MinCacheSpeedup {
			res.MinCacheSpeedup = row.CacheSpeedup
		}
		o.printf("  %-9s %6d %11.1f %11.2f %11.2f %8.0fx %8.0fx\n",
			row.Scenario, row.Nodes, row.CostUS, row.GreedyUS, row.CachedUS,
			row.Speedup, row.CacheSpeedup)
	}
	o.printf("  greedy plans at least %.0fx faster than cost-based on every scenario; cache hits %.0fx\n\n",
		res.MinSpeedup, res.MinCacheSpeedup)
	return res, nil
}
