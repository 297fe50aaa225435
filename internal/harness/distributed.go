package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os/exec"
	"sort"
	"time"

	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/record"
)

// DistributedCheck is one differential cell: the same job run distributed
// across processes and single-process, compared byte-for-byte.
type DistributedCheck struct {
	Algorithm   string
	Parallelism int
	Hosts       int
	Supersteps  int
	// Reoptimize marks the cells that run with coordinated mid-run
	// re-optimization on; PlanEpochs counts the plan swaps the run
	// actually applied (every process re-plans and swaps sessions at an
	// epoch bump, and the result must still be byte-identical).
	Reoptimize bool
	PlanEpochs int
	Records    int
	Identical  bool
}

// DistributedBenchRow is one row of the superstep-throughput comparison.
type DistributedBenchRow struct {
	Hosts         int
	Supersteps    int
	Duration      time.Duration
	StepsPerSec   float64
	RemoteBatches int64
	RemoteBytes   int64
}

// ShardedServeRow is one row of the sharded live-serving comparison: the
// same warm CC maintenance stream (the Live scenario's FOAF mutation mix)
// absorbed by a single-process LiveView and by a view sharded across a
// worker process via distributed maintenance sessions.
type ShardedServeRow struct {
	Hosts         int
	Batches       int
	BatchEdges    int
	Duration      time.Duration
	BatchesPerSec float64
}

// DistributedResult is the outcome of the Distributed scenario.
type DistributedResult struct {
	Checks []DistributedCheck
	Bench  []DistributedBenchRow
	// Sharded is the warm sharded-maintenance throughput pair; the
	// acceptance bar is ShardedSlowdown <= 2 with identical final states.
	Sharded          []ShardedServeRow
	ShardedSlowdown  float64
	ShardedIdentical bool
	// AllIdentical is the acceptance bit: every differential cell agreed.
	AllIdentical bool
}

// workerHandle is one running worker process (or in-process listener).
type workerHandle struct {
	addr string
	stop func()
}

// startWorker provides the scenario's worker. With WorkerAddrs it is an
// already-running external worker (left running afterwards); with a
// WorkerBinary it is a freshly spawned OS process (`spinflow worker
// -listen 127.0.0.1:0`, address read from its stdout); otherwise an
// in-process control listener serving the identical code over real TCP.
func startWorker(o Options) (*workerHandle, error) {
	if len(o.WorkerAddrs) > 0 {
		return &workerHandle{addr: o.WorkerAddrs[0], stop: func() {}}, nil
	}
	if o.WorkerBinary == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: live.NewWorkerHost(o.WorkerObs)})
		return &workerHandle{addr: ln.Addr().String(), stop: func() { ln.Close() }}, nil
	}
	cmd := exec.Command(o.WorkerBinary, "worker", "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: start worker %s: %w", o.WorkerBinary, err)
	}
	// The worker prints its bound control address as the first line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("harness: worker %s exited before printing its address", o.WorkerBinary)
	}
	addr := sc.Text()
	go func() {
		for sc.Scan() {
		}
	}()
	return &workerHandle{addr: addr, stop: func() {
		cmd.Process.Kill()
		cmd.Wait()
	}}, nil
}

// scaled applies the harness scale factor with a floor that keeps even
// tiny-scale graphs non-trivial across 4 partitions.
func scaled(s graphgen.Scale, n int64) int64 {
	v := int64(float64(s) * float64(n))
	if v < 60 {
		v = 60
	}
	return v
}

// distributedJobs is the differential matrix: CC and SSSP fixpoints at
// parallelism {2, 4}, each 2-process vs single-process.
func distributedJobs(scale graphgen.Scale) []distrib.JobSpec {
	n := scaled(scale, 240)
	var jobs []distrib.JobSpec
	for _, alg := range []string{"cc", "sssp"} {
		for _, par := range []int{2, 4} {
			jobs = append(jobs, distrib.JobSpec{
				Algorithm:   alg,
				GraphKind:   "uniform",
				GraphN:      n,
				GraphM:      2 * n,
				Seed:        0xD157 + uint64(par),
				Source:      1,
				Parallelism: par,
			})
		}
		// One cell per algorithm with coordinated mid-run re-optimization:
		// the workset collapse near convergence triggers re-plans, and the
		// bytes must still match. A plan epoch — every process swapping
		// sessions — is announced only when a re-plan changes the physical
		// shape: SSSP's re-plans keep it (0 epochs); the CC cell runs a
		// near-complete core with a tail at parallelism 2, where the
		// broadcast plan of the dense supersteps gives way to a partitioned
		// edge table once (1 epoch).
		js := distrib.JobSpec{
			Algorithm:   alg,
			GraphKind:   "uniform",
			GraphN:      n,
			GraphM:      2 * n,
			Seed:        0xD157,
			Source:      1,
			Parallelism: 4,
			Reoptimize:  true,
		}
		if alg == "cc" {
			js.GraphKind, js.GraphN, js.GraphM, js.Parallelism = "uniform-tail", 200, 30000, 2
		}
		jobs = append(jobs, js)
	}
	return jobs
}

// Distributed proves the distributed exchange transport: every job in the
// differential matrix runs once across two processes and once
// single-process, and the converged solutions must be byte-identical.
// The scenario then measures superstep throughput 1-process vs 2-process
// on a larger CC job (the table the README's "Distributed mode" section
// reports).
func Distributed(o Options) (*DistributedResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	res := &DistributedResult{AllIdentical: true}

	w, err := startWorker(o)
	if err != nil {
		return nil, err
	}
	defer w.stop()

	o.printf("Distributed mode — 2-process differential (vs single-process bytes)\n")
	o.printf("  %-11s %-4s %-6s %-6s %-7s %s\n", "algorithm", "par", "steps", "epochs", "records", "identical")
	for _, js := range distributedJobs(o.Scale) {
		single, err := distrib.RunSingle(js)
		if err != nil {
			return nil, fmt.Errorf("harness: single-process %s: %w", js.Algorithm, err)
		}
		dist, err := live.RunJob(js, []string{w.addr}, nil)
		if err != nil {
			return nil, fmt.Errorf("harness: distributed %s: %w", js.Algorithm, err)
		}
		identical := bytes.Equal(record.EncodeBatch(nil, dist.Solution), record.EncodeBatch(nil, single.Solution))
		res.AllIdentical = res.AllIdentical && identical
		res.Checks = append(res.Checks, DistributedCheck{
			Algorithm: js.Algorithm, Parallelism: js.Parallelism,
			Hosts: 2, Supersteps: dist.Supersteps,
			Reoptimize: js.Reoptimize, PlanEpochs: dist.PlanEpochs,
			Records: len(dist.Solution), Identical: identical,
		})
		o.printf("  %-11s %-4d %-6d %-6d %-7d %t\n",
			js.Algorithm, js.Parallelism, dist.Supersteps, dist.PlanEpochs, len(dist.Solution), identical)
	}
	if !res.AllIdentical {
		return res, fmt.Errorf("harness: distributed fixpoints diverged from single-process")
	}

	// Throughput: the same CC job, 1 process vs 2. The absolute numbers
	// are hardware-bound; the row pair shows what localhost TCP shipping
	// costs per superstep relative to in-memory queues.
	benchJob := distrib.JobSpec{
		Algorithm: "cc", GraphKind: "uniform",
		GraphN: scaled(o.Scale, 4000), GraphM: scaled(o.Scale, 12000),
		Seed: 0xBE9C, Parallelism: o.Parallelism,
	}
	o.printf("\n  superstep throughput (cc, %d vertices, par %d):\n", benchJob.GraphN, benchJob.Parallelism)
	o.printf("  %-6s %-6s %-10s %-10s %-13s %s\n", "hosts", "steps", "duration", "steps/s", "remoteBatch", "remoteBytes")
	for hosts := 1; hosts <= 2; hosts++ {
		start := time.Now()
		var r *distrib.Result
		if hosts == 1 {
			r, err = distrib.RunSingle(benchJob)
		} else {
			r, err = live.RunJob(benchJob, []string{w.addr}, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: bench %d-process: %w", hosts, err)
		}
		d := time.Since(start)
		row := DistributedBenchRow{
			Hosts: hosts, Supersteps: r.Supersteps, Duration: d,
			StepsPerSec:   float64(r.Supersteps) / d.Seconds(),
			RemoteBatches: r.Work.RemoteBatches, RemoteBytes: r.Work.RemoteBytes,
		}
		res.Bench = append(res.Bench, row)
		o.printf("  %-6d %-6d %-10s %-10.1f %-13d %d\n",
			row.Hosts, row.Supersteps, row.Duration.Round(time.Millisecond),
			row.StepsPerSec, row.RemoteBatches, row.RemoteBytes)
	}

	// Sharded live serving: a warm FOAF CC maintenance stream, absorbed
	// by a single-process view and by a view sharded across the worker
	// via distributed maintenance sessions. Cold builds stay off the
	// clock; the pair measures warm batch absorption only.
	g := graphgen.FOAF(o.Scale)
	initial := make([]live.Mutation, len(g.Edges))
	for i, e := range g.Edges {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	const shardBatches = 6
	batchN := int(g.NumEdges() / 5)
	if batchN < 1 {
		batchN = 1
	}
	batches := make([][]live.Mutation, shardBatches)
	for i := range batches {
		batches[i] = mutationBatch(g, batchN, 0x5EED+uint64(i)*7919)
	}
	runStream := func(workers []string) ([]record.Record, time.Duration, error) {
		cfg := live.ViewConfig{Config: iterative.Config{Parallelism: o.Parallelism}}
		cfg.Workers = workers
		v, err := live.NewView("shard-bench", live.CC(), initial, cfg)
		if err != nil {
			return nil, 0, err
		}
		defer v.Close()
		start := time.Now()
		for _, b := range batches {
			if err := v.Mutate(b...); err != nil {
				return nil, 0, err
			}
			if err := v.Flush(); err != nil {
				return nil, 0, err
			}
		}
		d := time.Since(start)
		snap := v.Snapshot()
		sort.Slice(snap, func(i, j int) bool { return record.Less(snap[i], snap[j]) })
		return snap, d, nil
	}
	o.printf("\n  sharded serving (warm cc maintenance on %s, %d batches x %d edges):\n",
		g.Name, shardBatches, batchN)
	o.printf("  %-6s %-10s %s\n", "hosts", "duration", "batches/s")
	var snaps [][]record.Record
	for hosts := 1; hosts <= 2; hosts++ {
		var workers []string
		if hosts == 2 {
			workers = []string{w.addr}
		}
		snap, d, err := runStream(workers)
		if err != nil {
			return nil, fmt.Errorf("harness: sharded serving bench %d-host: %w", hosts, err)
		}
		snaps = append(snaps, snap)
		row := ShardedServeRow{
			Hosts: hosts, Batches: shardBatches, BatchEdges: batchN,
			Duration: d, BatchesPerSec: float64(shardBatches) / d.Seconds(),
		}
		res.Sharded = append(res.Sharded, row)
		o.printf("  %-6d %-10s %.1f\n", row.Hosts, row.Duration.Round(time.Millisecond), row.BatchesPerSec)
	}
	res.ShardedIdentical = bytes.Equal(record.EncodeBatch(nil, snaps[0]), record.EncodeBatch(nil, snaps[1]))
	res.ShardedSlowdown = float64(res.Sharded[1].Duration) / float64(res.Sharded[0].Duration)
	o.printf("  sharded/single slowdown: %.2fx, final states identical: %v\n\n",
		res.ShardedSlowdown, res.ShardedIdentical)
	if !res.ShardedIdentical {
		return res, fmt.Errorf("harness: sharded maintained state diverged from single-process")
	}
	return res, nil
}
