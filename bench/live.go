package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	rt "repro/internal/runtime"
)

// The live workloads: a resident Connected Components view over an
// islands graph absorbs a fixed mutation stream, closed loop, one client.
// live-churn-local and live-churn-sharded take byte-for-byte the same
// graph, stream and seed; the sharded one hosts half the partitions on a
// worker served in-process over loopback TCP, so the difference between
// the two is the transport, the wire codec, the control round trips and
// the sharded session's always-full-recompute delete path.

// churnInput is the generated graph and stream.
type churnInput struct {
	initial []live.Mutation
	stream  [][]live.Mutation
	// final is the edge set after the whole stream.
	final []edge
}

// oracle is vertex → component label after the whole stream. Vertices
// outlive their edges, so it covers every vertex the graph ever had, not
// just the endpoints of the final edge set.
func (in *churnInput) oracle() map[int64]int64 {
	var seen []int64
	for _, mu := range in.initial {
		seen = append(seen, mu.Src, mu.Dst)
	}
	for _, b := range in.stream {
		for _, mu := range b {
			seen = append(seen, mu.Src, mu.Dst)
		}
	}
	return unionFind(in.final, seen)
}

func genChurn(e *env) *churnInput {
	numIslands, size, chords := int64(3000), int64(20), 1
	batches, inserts, deletes := 120, 256, 8
	if e.tiny {
		numIslands, batches, inserts = 200, 16, 32
	}
	r := newRNG(e.seed, 4)
	edges := islands(r, numIslands, size, chords)
	stream, final := churnStream(r, edges, numIslands, size, batches, inserts, deletes)
	return &churnInput{initial: insertsOf(edges), stream: stream, final: final}
}

// startWorker serves one view-hosting worker on loopback, as `spinflow
// worker` does, and returns its address and a stop function that returns
// once the accept loop has ended.
func startWorker() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The accept loop only returns a non-nil error for a listener
		// failure, which the view's next control round trip reports too.
		_ = distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: live.NewWorkerHost(nil)})
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }, nil
}

func verifyCC(sol []record.Record, oracle map[int64]int64) error {
	if len(sol) != len(oracle) {
		return fmt.Errorf("solution has %d records, oracle %d", len(sol), len(oracle))
	}
	for _, r := range sol {
		if oracle[r.A] != r.B {
			return fmt.Errorf("vertex %d labelled %d, oracle %d", r.A, r.B, oracle[r.A])
		}
	}
	return nil
}

// churnCycle is one set-up plus one pass over the stream.
type churnCycle struct {
	setup, stream   float64
	inserts, heavy  []float64 // per-batch apply seconds, by batch kind
	fast, part, all []float64 // the traced run's batches, by maintenance class
	view            live.ViewStats
	solution        []record.Record
}

// churnPool pools the samples of several cycles.
type churnPool struct {
	churnCycle
	setups, streams []float64
}

func (p *churnPool) add(c *churnCycle) {
	p.setups, p.streams = append(p.setups, c.setup), append(p.streams, c.stream)
	p.inserts, p.heavy = append(p.inserts, c.inserts...), append(p.heavy, c.heavy...)
	p.fast, p.part, p.all = append(p.fast, c.fast...), append(p.part, c.part...), append(p.all, c.all...)
	p.view, p.solution = c.view, c.solution
}

// churnOnce builds the view (set-up), absorbs the stream batch by batch
// with Mutate+Flush, checks the result and tears everything down.
func churnOnce(e *env, out *outcome, sharded bool, cfg iterative.Config, tr *tracer) (*churnCycle, error) {
	c := &churnCycle{}
	t0 := time.Now()
	in := genChurn(e)
	vcfg := live.ViewConfig{Config: cfg}
	if sharded {
		addr, stop, err := startWorker()
		if err != nil {
			return nil, err
		}
		defer stop()
		vcfg.Workers = []string{addr}
	}
	v, err := live.NewView("churn", live.CC(), in.initial, vcfg)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	c.setup = time.Since(t0).Seconds()

	runtime.GC() // every stream starts from a collected heap
	streamStart := time.Now()
	for i, batch := range in.stream {
		out.attempted++
		var before live.ViewStats
		if tr != nil {
			before = v.Stats()
		}
		planned := planNanos(cfg)
		start := time.Now()
		root := tr.root("batch", start)
		sp := tr.start(root, "mutate+flush", layerLive)
		err := v.Mutate(batch...)
		if err == nil {
			err = v.Flush()
		}
		sp.end()
		root.end()
		d := time.Since(start).Seconds()
		// What the apply spent re-planning, by the planner's own counter.
		tr.closed(sp, "plan", layerOptimizer, start, time.Duration(planNanos(cfg)-planned))
		if err != nil {
			out.failed++
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if batch[0].Op == live.OpDeleteEdge {
			c.heavy = append(c.heavy, d)
		} else {
			c.inserts = append(c.inserts, d)
		}
		if tr == nil {
			continue
		}
		switch after := v.Stats(); {
		case after.FullRecomputes > before.FullRecomputes:
			c.all = append(c.all, d)
		case after.PartialRecomputes > before.PartialRecomputes:
			c.part = append(c.part, d)
		default:
			c.fast = append(c.fast, d)
		}
	}
	c.stream = time.Since(streamStart).Seconds()
	c.view = v.Stats()
	c.solution = v.Snapshot()
	if err := verifyCC(c.solution, in.oracle()); err != nil {
		out.failed++
		return nil, err
	}
	if sharded {
		for _, st := range c.view.Shards {
			if st.Records == 0 {
				return nil, fmt.Errorf("host %d serves no records", st.Host)
			}
		}
	} else if c.view.PartialRecomputes == 0 {
		return nil, fmt.Errorf("no delete batch took the bounded-recompute path")
	}
	return c, nil
}

func planNanos(cfg iterative.Config) int64 {
	if cfg.Metrics == nil {
		return 0
	}
	return cfg.Metrics.PlanNanos.Load()
}

func runChurn(e *env, sharded bool) (*outcome, error) {
	out := newOutcome()
	var m metrics.Counters
	cfg := iterative.Config{Parallelism: e.par, Metrics: &m}
	if !e.traced {
		pool := &churnPool{}
		err := repeatFor(e.window(1), 2, func() error {
			c, err := churnOnce(e, out, sharded, cfg, nil)
			if err == nil {
				pool.add(c)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out.size("vertices", int64(pool.view.Vertices))
		out.size("edges", int64(pool.view.Edges))
		out.set("setup_s", median(pool.setups), len(pool.setups))
		out.set("op_p50_ms", median(pool.inserts)*1e3, len(pool.inserts))
		out.set("heavy_p50_ms", median(pool.heavy)*1e3, len(pool.heavy))
		return out, nil
	}

	// Plain, traced and Obs-on cycles take turns, so the two overheads are
	// ratios between neighbours in time. The traced cycles count into their
	// own counters.
	var tm metrics.Counters
	tracedCfg, obsCfg := cfg, cfg
	tracedCfg.Metrics = &tm
	obsCfg.Obs, obsCfg.TraceID = obs.NewRegistry(), obs.NewTraceID()
	plain, pool, withObs := &churnPool{}, &churnPool{}, &churnPool{}
	if _, err := churnOnce(e, out, sharded, cfg, nil); err != nil { // warm-up, discarded
		return nil, err
	}
	heap := startHeapWatch()
	err := repeatFor(e.window(1), 1, func() error {
		for _, turn := range []struct {
			cfg  iterative.Config
			tr   *tracer
			into *churnPool
		}{{cfg, nil, plain}, {tracedCfg, e.tr, pool}, {obsCfg, nil, withObs}} {
			c, err := churnOnce(e, out, sharded, turn.cfg, turn.tr)
			if err != nil {
				return err
			}
			turn.into.add(c)
		}
		return nil
	})
	out.set("peak_heap_mb", heap.stop(), 0)
	if err != nil {
		return nil, err
	}
	work := tm.Snapshot()
	out.size("vertices", int64(pool.view.Vertices))
	out.size("edges", int64(pool.view.Edges))
	out.solution = pool.solution

	batches := float64(len(pool.inserts) + len(pool.heavy))
	out.set("stream_s", median(pool.streams), len(pool.streams))
	out.set("op_p99_ms", percentile(pool.inserts, 0.99)*1e3, len(pool.inserts))
	out.set("heavy_p95_ms", percentile(pool.heavy, 0.95)*1e3, len(pool.heavy))
	out.set("trace_overhead_ratio", median(pool.inserts)/median(plain.inserts), len(pool.inserts))
	out.set("obs_overhead_ratio", median(withObs.inserts)/median(plain.inserts), len(withObs.inserts))
	out.set("fast_apply_p50_ms", median(pool.fast)*1e3, len(pool.fast))
	out.set("partial_apply_p50_ms", median(pool.part)*1e3, len(pool.part))
	out.set("full_apply_p50_ms", median(pool.all)*1e3, len(pool.all))
	out.set("maint_supersteps_per_batch", float64(work.MaintenanceSupersteps)/batches, int(batches))
	if work.SolutionAccesses > 0 {
		out.set("useful_ratio", float64(work.SolutionUpdates)/float64(work.SolutionAccesses), int(work.SolutionAccesses))
	}
	out.set("replans_per_op", float64(work.GreedyPlans)/batches, int(batches))
	out.set("plan_cache_hits_per_op", float64(work.PlanCacheHits)/batches, int(batches))
	out.set("records_shipped_per_op", float64(work.RecordsShipped)/batches, int(batches))
	out.set("batches_allocated_per_op", float64(work.BatchesAllocated)/batches, int(batches))
	out.set("batches_recycled_per_op", float64(work.BatchesRecycled)/batches, int(batches))
	if work.RecordsShippedRemote > 0 {
		out.set("transport_bytes_per_record", float64(work.RemoteBytes)/float64(work.RecordsShippedRemote), int(work.RecordsShippedRemote))
	}
	out.budget = budgetOf(e.tr.since(0))

	// The probes need the workload's spec: the one the view plans from.
	in := genChurn(e)
	gs := live.NewGraphState()
	for _, mu := range in.initial {
		gs.Apply(mu)
	}
	spec, _, _ := live.CC().Spec(gs)
	if sharded {
		if err := probeRemoteQuery(e, out, in); err != nil {
			return nil, err
		}
	}
	return out, probeCommon(e, out, spec.Plan, incrementalOptions(&spec, e.par))
}

// probeRemoteQuery times Query of keys the worker owns: one control round
// trip each.
func probeRemoteQuery(e *env, out *outcome, in *churnInput) error {
	addr, stop, err := startWorker()
	if err != nil {
		return err
	}
	defer stop()
	v, err := live.NewView("probe", live.CC(), in.initial, live.ViewConfig{
		Config: iterative.Config{Parallelism: e.par}, Workers: []string{addr}})
	if err != nil {
		return err
	}
	defer v.Close()
	place := rt.ContiguousPlacement(e.par, 2) // host 1 is the worker
	var remote []int64
	for _, mu := range in.initial {
		if place[record.PartitionOf(mu.Src, e.par)] == 1 {
			remote = append(remote, mu.Src)
		}
		if len(remote) == 512 {
			break
		}
	}
	var us []float64
	for _, k := range remote {
		t0 := time.Now()
		if _, ok := v.Query(k); !ok {
			return fmt.Errorf("query(%d): not found", k)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out.set("shard_remote_query_us", median(us), len(us))
	return nil
}
