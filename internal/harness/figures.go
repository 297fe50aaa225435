package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/pregel"
	"repro/internal/sparklike"
)

// pageRankOnAllEngines measures 20-iteration PageRank on each engine for
// one dataset, optionally collecting per-iteration times.
func pageRankOnAllEngines(o Options, g *graphgen.Graph, trace bool) ([]EngineTiming, error) {
	iters := o.PageRankIterations
	var out []EngineTiming

	// Spark-like (Pegasus-style partition plan).
	{
		ctx := sparklike.NewContext(o.Parallelism, nil)
		start := time.Now()
		_, tr, err := sparklike.PageRank(ctx, g, iters, algorithms.DefaultDamping, trace)
		if err != nil {
			return nil, fmt.Errorf("spark pagerank: %w", err)
		}
		t := EngineTiming{Engine: "Spark", Dataset: g.Name, Total: time.Since(start), Iterations: iters}
		for _, st := range tr.Iterations {
			t.PerIteration = append(t.PerIteration, st.Duration)
		}
		out = append(out, t)
	}

	// Giraph-like (Pregel).
	{
		cfg := pregel.Config{Parallelism: o.Parallelism, CollectTrace: trace}
		start := time.Now()
		_, res, err := pregel.PageRank(g, iters, algorithms.DefaultDamping, cfg)
		if err != nil {
			return nil, fmt.Errorf("pregel pagerank: %w", err)
		}
		t := EngineTiming{Engine: "Giraph", Dataset: g.Name, Total: time.Since(start), Iterations: iters}
		for _, st := range res.Trace.Iterations {
			t.PerIteration = append(t.PerIteration, st.Duration)
		}
		out = append(out, t)
	}

	// Stratosphere, both Figure-4 plans.
	for _, variant := range []algorithms.PlanVariant{algorithms.PlanPartition, algorithms.PlanBroadcast} {
		cfg := iterative.Config{Parallelism: o.Parallelism, CollectTrace: trace}
		start := time.Now()
		_, res, err := algorithms.PageRankVariant(g, iters, variant, cfg)
		if err != nil {
			return nil, fmt.Errorf("stratosphere pagerank (%s): %w", variant, err)
		}
		name := "Stratosphere Part."
		if variant == algorithms.PlanBroadcast {
			name = "Stratosphere BC"
		}
		t := EngineTiming{Engine: name, Dataset: g.Name, Total: time.Since(start), Iterations: iters}
		for _, st := range res.Trace.Iterations {
			t.PerIteration = append(t.PerIteration, st.Duration)
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure7 measures total PageRank runtime on Spark-like, Pregel-like, and
// both Stratosphere plans over the web/social datasets (paper Figure 7).
func Figure7(o Options) ([]EngineTiming, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	var all []EngineTiming
	for _, d := range []graphgen.Dataset{graphgen.DSWikipedia, graphgen.DSWebbase, graphgen.DSTwitter} {
		g := graphgen.Load(d, o.Scale)
		ts, err := pageRankOnAllEngines(o, g, false)
		if err != nil {
			return nil, err
		}
		all = append(all, ts...)
	}
	o.printTimings(fmt.Sprintf("Figure 7 — PageRank total runtime (%d iterations)", o.PageRankIterations), all)
	return all, nil
}

// Figure8 measures per-iteration PageRank times on the Wikipedia graph
// (paper Figure 8).
func Figure8(o Options) ([]EngineTiming, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.Load(graphgen.DSWikipedia, o.Scale)
	ts, err := pageRankOnAllEngines(o, g, true)
	if err != nil {
		return nil, err
	}
	o.printf("Figure 8 — PageRank per-iteration times on %s (ms)\n", g.Name)
	o.printf("  %-6s", "iter")
	for _, t := range ts {
		o.printf(" %20s", t.Engine)
	}
	o.printf("\n")
	for i := 0; i < o.PageRankIterations; i++ {
		o.printf("  %-6d", i)
		for _, t := range ts {
			if i < len(t.PerIteration) {
				o.printf(" %20.2f", float64(t.PerIteration[i].Microseconds())/1000)
			} else {
				o.printf(" %20s", "-")
			}
		}
		o.printf("\n")
	}
	o.printf("\n")
	return ts, nil
}

// ccOnEngine runs one Connected Components variant, tolerating capped
// runs (ErrNoProgress with a partial result).
func ccRun(name, dataset string, f func() (*metrics.Trace, int, error)) (EngineTiming, error) {
	start := time.Now()
	tr, iters, err := f()
	if err != nil && !errors.Is(err, iterative.ErrNoProgress) {
		return EngineTiming{}, fmt.Errorf("%s on %s: %w", name, dataset, err)
	}
	t := EngineTiming{Engine: name, Dataset: dataset, Total: time.Since(start), Iterations: iters}
	if tr != nil {
		for _, st := range tr.Iterations {
			t.PerIteration = append(t.PerIteration, st.Duration)
			t.Messages = append(t.Messages, st.Work.WorksetElements)
		}
	}
	return t, nil
}

// ccAllEngines measures Connected Components across all engines and
// variants for one dataset. cap > 0 bounds the iteration count (the
// paper's "Webbase (20)" columns); trace collects per-iteration data.
func ccAllEngines(o Options, g *graphgen.Graph, cap int, trace bool, includeSparkSim bool) ([]EngineTiming, error) {
	var out []EngineTiming

	t, err := ccRun("Spark", g.Name, func() (*metrics.Trace, int, error) {
		ctx := sparklike.NewContext(o.Parallelism, nil)
		res, err := sparklike.ConnectedComponents(ctx, g, cap, trace)
		if err != nil {
			return nil, 0, err
		}
		return &res.Trace, res.Iterations, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, t)

	if includeSparkSim {
		t, err := ccRun("Spark Sim.Incr.", g.Name, func() (*metrics.Trace, int, error) {
			ctx := sparklike.NewContext(o.Parallelism, nil)
			res, err := sparklike.SimIncrementalCC(ctx, g, cap, trace)
			if err != nil {
				return nil, 0, err
			}
			return &res.Trace, res.Iterations, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}

	t, err = ccRun("Giraph", g.Name, func() (*metrics.Trace, int, error) {
		var m metrics.Counters
		cfg := pregel.Config{Parallelism: o.Parallelism, CollectTrace: trace, Metrics: &m}
		if cap > 0 {
			cfg.MaxSupersteps = cap
		}
		_, res, err := pregel.ConnectedComponents(g, cfg)
		if err != nil && res == nil {
			return nil, 0, err
		}
		return &res.Trace, res.Supersteps, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, t)

	t, err = ccRun("Stratosphere Full", g.Name, func() (*metrics.Trace, int, error) {
		var m metrics.Counters
		spec, s0 := algorithms.CCBulkSpec(g)
		if cap > 0 {
			spec.MaxIterations = cap
		}
		res, err := iterative.RunBulk(spec, s0, iterative.Config{
			Parallelism: o.Parallelism, CollectTrace: trace, Metrics: &m})
		if res == nil {
			return nil, 0, err
		}
		return &res.Trace, res.Iterations, err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, t)

	variants := []struct {
		name    string
		variant algorithms.CCVariant
	}{
		{"Stratosphere Micro", algorithms.CCMatch},
		{"Stratosphere Incr.", algorithms.CCCoGroup},
	}
	for _, v := range variants {
		t, err := ccRun(v.name, g.Name, func() (*metrics.Trace, int, error) {
			var m metrics.Counters
			spec, s0, w0 := algorithms.CCIncrementalSpec(g, v.variant)
			if cap > 0 {
				spec.MaxSupersteps = cap
			}
			res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{
				Parallelism: o.Parallelism, CollectTrace: trace, Metrics: &m})
			if res == nil {
				return nil, 0, err
			}
			return &res.Trace, res.Supersteps, err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure9 measures total Connected Components runtime for all engines
// (paper Figure 9: Wikipedia, Hollywood, Twitter, Webbase capped at 20).
func Figure9(o Options) ([]EngineTiming, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	var all []EngineTiming
	datasets := []struct {
		d   graphgen.Dataset
		cap int
	}{
		{graphgen.DSWikipedia, 0},
		{graphgen.DSHollywood, 0},
		{graphgen.DSTwitter, 0},
		{graphgen.DSWebbase, 20},
	}
	for _, ds := range datasets {
		g := graphgen.Load(ds.d, o.Scale)
		ts, err := ccAllEngines(o, g, ds.cap, false, false)
		if err != nil {
			return nil, err
		}
		all = append(all, ts...)
	}
	o.printTimings("Figure 9 — Connected Components total runtime", all)
	return all, nil
}

// Figure10 runs incremental Connected Components on the high-diameter
// Webbase graph to full convergence and reports the per-iteration time
// and workset size (paper Figure 10), plus the extrapolated bulk runtime.
type Figure10Result struct {
	Supersteps       int
	IncrementalTotal time.Duration
	BulkFirst20      time.Duration
	BulkExtrapolated time.Duration
}

// Figure10 regenerates the long-tail experiment.
func Figure10(o Options) (*Figure10Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.Load(graphgen.DSWebbase, o.Scale)

	var m metrics.Counters
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	start := time.Now()
	res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{
		Parallelism: o.Parallelism, CollectTrace: true, Metrics: &m})
	if err != nil {
		return nil, err
	}
	incrTotal := time.Since(start)

	bulkSpec, bs0 := algorithms.CCBulkSpec(g)
	bulkSpec.MaxIterations = 20
	bstart := time.Now()
	bres, berr := iterative.RunBulk(bulkSpec, bs0, iterative.Config{Parallelism: o.Parallelism})
	if berr != nil && !errors.Is(berr, iterative.ErrNoProgress) {
		return nil, berr
	}
	bulk20 := time.Since(bstart)
	bulkIters := 20
	if bres != nil && bres.Iterations < bulkIters {
		bulkIters = bres.Iterations
	}

	out := &Figure10Result{
		Supersteps:       res.Supersteps,
		IncrementalTotal: incrTotal,
		BulkFirst20:      bulk20,
		BulkExtrapolated: time.Duration(float64(bulk20) / float64(bulkIters) * float64(res.Supersteps)),
	}

	o.printf("Figure 10 — incremental Connected Components on %s (V=%d E=%d)\n",
		g.Name, g.NumVertices, g.NumEdges())
	o.printf("  supersteps to convergence: %d\n", res.Supersteps)
	o.printf("  %-9s %14s %14s\n", "iter", "time(ms)", "workset")
	for i, st := range res.Trace.Iterations {
		if i < 20 || i%25 == 0 || i == len(res.Trace.Iterations)-1 {
			o.printf("  %-9d %14.2f %14d\n", st.Iteration,
				float64(st.Duration.Microseconds())/1000, st.Work.WorksetElements)
		}
	}
	o.printf("  incremental total: %.1f ms; bulk first %d iters: %.1f ms; bulk extrapolated to %d iters: %.1f ms (%.1fx speedup)\n\n",
		ms(out.IncrementalTotal), bulkIters, ms(out.BulkFirst20), res.Supersteps,
		ms(out.BulkExtrapolated), float64(out.BulkExtrapolated)/float64(out.IncrementalTotal))
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Figure11 measures per-iteration Connected Components times on Wikipedia
// for all engines including Spark's simulated-incremental variant.
func Figure11(o Options) ([]EngineTiming, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.Load(graphgen.DSWikipedia, o.Scale)
	ts, err := ccAllEngines(o, g, 0, true, true)
	if err != nil {
		return nil, err
	}
	o.printf("Figure 11 — Connected Components per-iteration times on %s (ms)\n", g.Name)
	o.printf("  %-6s", "iter")
	for _, t := range ts {
		o.printf(" %20s", t.Engine)
	}
	o.printf("\n")
	maxIters := 0
	for _, t := range ts {
		if len(t.PerIteration) > maxIters {
			maxIters = len(t.PerIteration)
		}
	}
	if maxIters > 14 {
		maxIters = 14
	}
	for i := 0; i < maxIters; i++ {
		o.printf("  %-6d", i)
		for _, t := range ts {
			if i < len(t.PerIteration) {
				o.printf(" %20.2f", ms(t.PerIteration[i]))
			} else {
				o.printf(" %20s", "-")
			}
		}
		o.printf("\n")
	}
	o.printf("\n")
	return ts, nil
}

// Figure12Result reports the time-vs-messages correlation per variant.
type Figure12Result struct {
	Variants []Figure12Variant
}

// Figure12Variant is one algorithm variant's series and fitted slope.
type Figure12Variant struct {
	Name     string
	Times    []time.Duration
	Messages []int64
	// SlopeNsPerMessage is the least-squares slope of time over messages.
	SlopeNsPerMessage float64
}

// Figure12 correlates per-iteration runtime with the number of exchanged
// candidate messages for the bulk, batch-incremental (CoGroup) and
// microstep (Match) Connected Components variants (paper Figure 12).
func Figure12(o Options) (*Figure12Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.Load(graphgen.DSWikipedia, o.Scale)

	runs := []struct {
		name string
		run  func() (*metrics.Trace, error)
	}{
		{"Full", func() (*metrics.Trace, error) {
			var m metrics.Counters
			spec, s0 := algorithms.CCBulkSpec(g)
			res, err := iterative.RunBulk(spec, s0, iterative.Config{
				Parallelism: o.Parallelism, CollectTrace: true, Metrics: &m})
			if err != nil {
				return nil, err
			}
			// For the bulk variant, "messages" are the records shipped to
			// the aggregation each pass.
			for i := range res.Trace.Iterations {
				res.Trace.Iterations[i].Work.WorksetElements = res.Trace.Iterations[i].Work.RecordsShipped
			}
			return &res.Trace, nil
		}},
		{"Microstep (Match)", func() (*metrics.Trace, error) {
			var m metrics.Counters
			spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
			res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{
				Parallelism: o.Parallelism, CollectTrace: true, Metrics: &m})
			if err != nil {
				return nil, err
			}
			return &res.Trace, nil
		}},
		{"Incremental (CoGroup)", func() (*metrics.Trace, error) {
			var m metrics.Counters
			spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
			res, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{
				Parallelism: o.Parallelism, CollectTrace: true, Metrics: &m})
			if err != nil {
				return nil, err
			}
			return &res.Trace, nil
		}},
	}

	out := &Figure12Result{}
	for _, r := range runs {
		tr, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("figure 12 %s: %w", r.name, err)
		}
		v := Figure12Variant{Name: r.name}
		for _, st := range tr.Iterations {
			v.Times = append(v.Times, st.Duration)
			v.Messages = append(v.Messages, st.Work.WorksetElements)
		}
		v.SlopeNsPerMessage = slope(v.Messages, v.Times)
		out.Variants = append(out.Variants, v)
	}

	o.printf("Figure 12 — runtime vs. exchanged messages on %s\n", g.Name)
	for _, v := range out.Variants {
		o.printf("  %-22s slope = %.1f ns/message\n", v.Name, v.SlopeNsPerMessage)
		for i := range v.Times {
			o.printf("    iter %-4d %12.2f ms %14d msgs\n", i, ms(v.Times[i]), v.Messages[i])
		}
	}
	o.printf("\n")
	return out, nil
}

// slope fits time = a*messages + b by least squares and returns a in
// nanoseconds per message.
func slope(msgs []int64, times []time.Duration) float64 {
	n := float64(len(msgs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range msgs {
		x := float64(msgs[i])
		y := float64(times[i].Nanoseconds())
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// All runs every experiment in paper order.
func All(o Options) error {
	if _, err := Table1(o); err != nil {
		return err
	}
	if _, err := Table2(o); err != nil {
		return err
	}
	if _, err := Figure2(o); err != nil {
		return err
	}
	if _, err := Figure4(o); err != nil {
		return err
	}
	if _, err := Figure7(o); err != nil {
		return err
	}
	if _, err := Figure8(o); err != nil {
		return err
	}
	if _, err := Figure9(o); err != nil {
		return err
	}
	if _, err := Figure10(o); err != nil {
		return err
	}
	if _, err := Figure11(o); err != nil {
		return err
	}
	if _, err := Figure12(o); err != nil {
		return err
	}
	if _, err := Distributed(o); err != nil {
		return err
	}
	return nil
}
