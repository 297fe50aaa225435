package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
	rt "repro/internal/runtime"
)

// Micro-probes: each times one layer's public functions over the
// workload's own data (its final solution, its spec), so a layer has a
// price on every workload whether or not the workload's run can be split
// from outside.

// probeRecords caps the records a probe touches, to keep it under ~0.2 s.
const probeRecords = 200_000

// probeBatch is the exchange layer's default batch size, so the codec is
// timed at the granularity the wire sees.
const probeBatch = 1024

// incrementalOptions are the optimizer options an incremental iteration
// plans its Δ dataflow with (iterative.RunIncremental builds the same).
func incrementalOptions(spec *iterative.IncrementalSpec, par int) optimizer.Options {
	return optimizer.Options{
		Parallelism:        par,
		ExpectedIterations: 10,
		PlaceholderProps:   map[int]optimizer.Props{spec.Workset.ID: {Part: record.KeyID(spec.WorksetKey)}},
		SinkPartition: map[int]record.KeyFunc{
			spec.DeltaSink.ID:   spec.SolutionKey,
			spec.WorksetSink.ID: spec.WorksetKey,
		},
		Feedback: map[int]int{spec.Workset.ID: spec.WorksetSink.ID},
		Fuse:     true,
	}
}

// probeCommon runs the probes that apply to every workload.
func probeCommon(e *env, out *outcome, plan *dataflow.Plan, opts optimizer.Options) error {
	recs := out.solution
	if len(recs) > probeRecords {
		recs = recs[:probeRecords]
	}
	if len(recs) == 0 {
		return fmt.Errorf("probes: workload left no solution")
	}
	if err := probeCodec(out, recs); err != nil {
		return err
	}
	if err := probePlanner(out, plan, opts); err != nil {
		return err
	}
	probeSolution(e, out, recs)
	return probeTransport(out, recs)
}

func batchesOf(recs []record.Record) []record.Batch {
	var out []record.Batch
	for len(recs) > 0 {
		n := min(probeBatch, len(recs))
		out, recs = append(out, recs[:n]), recs[n:]
	}
	return out
}

// probeCodec round-trips the records through the batch codec and through
// CRC frames.
func probeCodec(out *outcome, recs []record.Record) error {
	batches := batchesOf(recs)
	n := float64(len(recs))

	var buf []byte
	t0 := time.Now()
	for _, b := range batches {
		buf = record.EncodeBatch(buf[:0], b)
		if got, _, err := record.DecodeBatch(buf); err != nil || len(got) != len(b) {
			return fmt.Errorf("batch codec round trip: %d of %d records: %v", len(got), len(b), err)
		}
	}
	out.set("codec_ns_per_record", float64(time.Since(t0).Nanoseconds())/n, len(recs))
	out.set("codec_bytes_per_record", float64(len(record.EncodeBatch(nil, batches[0])))/float64(len(batches[0])), len(batches[0]))

	var frames []byte
	t0 = time.Now()
	for _, b := range batches {
		frames = record.AppendFrame(frames, b)
	}
	fr := record.NewFrameReader(bytes.NewReader(frames))
	for range batches {
		if _, err := fr.Next(); err != nil {
			return fmt.Errorf("frame round trip: %w", err)
		}
	}
	out.set("frame_ns_per_record", float64(time.Since(t0).Nanoseconds())/n, len(recs))
	out.set("frame_bytes_per_record", float64(len(frames))/n, len(recs))
	return nil
}

// probePlanner times the two planners and a plan-cache hit on the
// workload's own logical plan.
func probePlanner(out *outcome, plan *dataflow.Plan, opts optimizer.Options) error {
	const reps = 25
	for _, p := range []struct {
		name string
		kind optimizer.PlannerKind
	}{{"plan_cost_us", optimizer.PlannerCost}, {"plan_greedy_us", optimizer.PlannerGreedy}} {
		opts.Planner = p.kind
		var us []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := optimizer.Optimize(plan, opts); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		out.set(p.name, median(us), reps)
	}
	cache := optimizer.NewPlanCache()
	var us []float64
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		if _, _, err := cache.Optimize(plan, opts, 1000); err != nil {
			return err
		}
		if i > 0 { // the first call is the miss that fills the cache
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	out.set("plan_cache_hit_us", median(us), reps)
	return nil
}

// probeSolution prices the compact solution set: bulk load plus a 10 %
// delta merge, point lookups, and resident bytes.
func probeSolution(e *env, out *outcome, recs []record.Record) {
	delta := make([]record.Record, 0, len(recs)/10+1)
	for i := 0; i < len(recs); i += 10 {
		r := recs[i]
		r.B, r.X = r.B-1, r.X/2 // wins under either comparator, so every record is stored
		delta = append(delta, r)
	}
	s := rt.NewSolutionSet(e.par, record.KeyA, algorithms.MinCidComparator, nil)
	t0 := time.Now()
	s.Init(recs)
	s.MergeDelta(delta)
	out.set("merge_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(len(recs)+len(delta)), len(recs)+len(delta))
	out.set("solution_bytes_per_record", float64(s.Bytes())/float64(s.Size()), s.Size())

	r := newRNG(e.seed, 9)
	keys := make([]int64, 100_000)
	for i := range keys {
		keys[i] = recs[r.intn(int64(len(recs)))].A
	}
	t0 = time.Now()
	for _, k := range keys {
		s.Lookup(s.PartitionFor(k), k)
	}
	out.set("lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(len(keys)), len(keys))
}

// probeTransport ships the records from one loopback TCPTransport to
// another, batch by batch, and times the sending side.
func probeTransport(out *outcome, recs []record.Record) error {
	var m metrics.Counters
	place := rt.ContiguousPlacement(2, 2)
	a, b := rt.NewTCPTransport(0, place, 1, &m), rt.NewTCPTransport(1, place, 1, nil)
	defer a.Close()
	defer b.Close()
	addrs := make([]string, 2)
	for i, t := range []*rt.TCPTransport{a, b} {
		addr, err := t.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = addr
	}
	errs := make(chan error, 1) // one send, from the one goroutine below
	go func() { errs <- a.ConnectPeers(addrs, 5*time.Second) }()
	if err := b.ConnectPeers(addrs, 5*time.Second); err != nil {
		return err
	}
	if err := <-errs; err != nil {
		return err
	}
	batches := batchesOf(recs)
	t0 := time.Now()
	for _, batch := range batches {
		a.Send(0, 1, batch)
	}
	a.FinishProducer(0)
	d := time.Since(t0)
	if err := a.Err(); err != nil {
		return err
	}
	out.set("transport_ns_per_record", float64(d.Nanoseconds())/float64(len(recs)), len(recs))
	if out.values["transport_bytes_per_record"] == 0 { // the sharded run measured its own
		out.set("transport_bytes_per_record", float64(m.RemoteBytes.Load())/float64(len(recs)), len(recs))
	}
	return nil
}

// totalAlloc is the bytes allocated by the process so far.
func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// heapWatch samples the live heap while a phase runs, for its peak.
type heapWatch struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			rtmetrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak, in MiB.
func (h *heapWatch) stop() float64 {
	close(h.stopc)
	return <-h.done
}
