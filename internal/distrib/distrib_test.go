package distrib

import (
	"bytes"
	"encoding/json"
	"net"
	"sort"
	"strings"
	"testing"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runtime"
)

// startWorkers launches n in-process worker control listeners and returns
// their addresses. In production the workers are separate processes
// (spinflow worker); in-process workers exercise the identical code paths
// — real TCP for both control and data planes — inside one test binary.
// Each worker gets its own telemetry registry (regs[i]), as each would in
// its own process.
func startWorkers(t *testing.T, n int, regs ...*obs.Registry) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		var reg *obs.Registry
		if i < len(regs) {
			reg = regs[i]
		}
		go ServeWorker(ln, nil, reg)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// runSingle computes the oracle: the same job on the plain single-process
// incremental driver.
func runSingle(t *testing.T, js JobSpec) []record.Record {
	t.Helper()
	js = js.normalized()
	spec, s0, w0, err := buildSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	cfg := iterative.Config{Parallelism: js.Parallelism, BatchSize: js.BatchSize}
	if js.Backend != "" {
		cfg.SolutionBackend = runtime.SolutionBackendKind(js.Backend)
	}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := res.Solution
	sort.Slice(sol, func(x, y int) bool { return record.Less(sol[x], sol[y]) })
	return sol
}

func encodeAll(recs []record.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = r.Encode(out)
	}
	return out
}

func TestDistributedMatchesSingleProcess(t *testing.T) {
	jobs := []JobSpec{
		{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD157, Parallelism: 4},
		{Algorithm: "cc-cogroup", GraphKind: "uniform", GraphN: 60, GraphM: 100, Seed: 0xD158, Parallelism: 2},
		{Algorithm: "sssp", GraphKind: "uniform", GraphN: 70, GraphM: 180, Seed: 0xD159, Parallelism: 4, Source: 3},
		{Algorithm: "cc", GraphKind: "pa", GraphN: 90, GraphM: 270, Seed: 0xD15A, Parallelism: 4, Backend: "map"},
	}
	for _, js := range jobs {
		js := js
		t.Run(js.Algorithm+"-"+js.GraphKind, func(t *testing.T) {
			want := runSingle(t, js)
			got, err := Run(js, startWorkers(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
				t.Fatalf("distributed fixpoint diverged: %d records vs %d single-process",
					len(got.Solution), len(want))
			}
			if got.Supersteps < 2 {
				t.Fatalf("suspiciously trivial run: %d supersteps", got.Supersteps)
			}
		})
	}
}

func TestDistributedThreeProcesses(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 96, GraphM: 200, Seed: 0xD15B, Parallelism: 6}
	want := runSingle(t, js)
	got, err := Run(js, startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatalf("3-process fixpoint diverged: %d records vs %d", len(got.Solution), len(want))
	}
}

// TestDistributedSingleHost runs the coordinator with no workers: the
// degenerate 1-host placement must behave exactly like the plain driver
// (all partitions hosted, the transport never used).
func TestDistributedSingleHost(t *testing.T) {
	js := JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 50, GraphM: 120, Seed: 0xD15C, Parallelism: 2, Source: 1}
	want := runSingle(t, js)
	got, err := Run(js, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("single-host distributed run diverged from the plain driver")
	}
	if got.Work.RemoteBatches != 0 {
		t.Fatalf("single-host run shipped %d remote batches", got.Work.RemoteBatches)
	}
}

// TestDistributedRemoteTrafficCounted checks the new transport metrics
// actually observe the shuffle: a 2-process CC run must ship batches.
func TestDistributedRemoteTrafficCounted(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 200, Seed: 0xD15D, Parallelism: 4}
	got, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Work.RemoteBatches == 0 || got.Work.RemoteBytes == 0 {
		t.Fatalf("2-process run reported no remote traffic: %+v", got.Work)
	}
	if got.Work.TransportErrors != 0 {
		t.Fatalf("clean run counted %d transport errors", got.Work.TransportErrors)
	}
}

// TestWorkerSurvivesSequentialJobs reuses one worker (one control
// connection dialed per Run) for several jobs, as the CI smoke does.
func TestWorkerSurvivesSequentialJobs(t *testing.T) {
	addrs := startWorkers(t, 1)
	for i := 0; i < 3; i++ {
		js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80,
			Seed: 0xD15E + uint64(i), Parallelism: 2}
		want := runSingle(t, js)
		got, err := Run(js, addrs)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
			t.Fatalf("job %d diverged", i)
		}
	}
}

// TestDistributedTracePropagation is the telemetry acceptance check: a
// 2-process traced run must produce superstep spans on BOTH hosts, all
// under the single trace ID the coordinator minted, reassembled into the
// coordinator's ring — and the differential result must be unaffected.
func TestDistributedTracePropagation(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD15F, Parallelism: 4}
	want := runSingle(t, js)

	coord := obs.NewRegistry()
	workerReg := obs.NewRegistry()
	got, err := RunObs(js, startWorkers(t, 1, workerReg), coord)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("traced run diverged from single-process")
	}

	if len(got.Spans) == 0 {
		t.Fatal("traced run returned no spans")
	}
	var id obs.TraceID
	hostSteps := map[int32]int{}
	for _, sp := range got.Spans {
		if sp.Trace == 0 {
			t.Fatalf("span with zero trace ID: %+v", sp)
		}
		if id == 0 {
			id = sp.Trace
		}
		if sp.Trace != id {
			t.Fatalf("spans carry mixed trace IDs: %016x and %016x", id, sp.Trace)
		}
		if sp.Phase == obs.PhaseSuperstep {
			hostSteps[sp.Host]++
		}
	}
	if hostSteps[0] == 0 || hostSteps[1] == 0 {
		t.Fatalf("superstep spans per host = %v, want both hosts represented", hostSteps)
	}
	// Both hosts ran the same barrier schedule.
	if hostSteps[0] != hostSteps[1] {
		t.Errorf("host superstep counts differ: %v", hostSteps)
	}
	if hostSteps[0] != got.Supersteps {
		t.Errorf("host 0 recorded %d superstep spans, run took %d", hostSteps[0], got.Supersteps)
	}
	// The coordinator's ring holds the merged trace too (what `spinflow
	// trace distributed` renders).
	if n := len(coord.Trace().SpansFor(id)); n != len(got.Spans) {
		t.Errorf("ring holds %d spans for the trace, Result.Spans has %d", n, len(got.Spans))
	}
	// The barrier RTT histogram saw every superstep.
	if c := coord.Histogram("distrib_step_rtt").Count(); c != int64(got.Supersteps) {
		t.Errorf("distrib_step_rtt count = %d, want %d", c, got.Supersteps)
	}
	// Cross-process shuffle was timed on the coordinator's transport.
	if coord.Histogram("transport_send_duration").Count() == 0 {
		t.Error("transport_send_duration recorded nothing")
	}
}

// reshapingJob is a CC job whose mid-run re-optimization genuinely changes
// the physical plan: on a near-complete core the cost-based planner
// broadcasts the small delta set against a stream-cached edge table, and
// once the workset collapses into the tail the greedy re-plan partitions
// the edge table instead. A later, deeper collapse re-plans again to that
// same partitioned shape.
var reshapingJob = JobSpec{Algorithm: "cc", GraphKind: "uniform-tail", GraphN: 200, GraphM: 30000,
	Seed: 0xE90C, Parallelism: 2, Reoptimize: true}

// TestDistributedReoptimizeMatchesSingleProcess is the plan-epoch
// acceptance check: a 2-process run with mid-run re-optimization enabled
// must produce the byte-identical fixpoint, in the same number of
// supersteps, as the single-process driver running the identical spec —
// and announce a coordinated plan epoch exactly when a re-plan changes
// the physical shape. The CC job re-plans twice and changes shape once;
// the SSSP job's re-plans all keep the running shape, so its workers
// never hear of them.
func TestDistributedReoptimizeMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		js         JobSpec
		wantEpochs int
		minReplans int64
	}{
		{reshapingJob, 1, 2},
		{JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 150, GraphM: 450, Seed: 0xE90D, Parallelism: 4, Source: 2, Reoptimize: true}, 0, 1},
	}
	for _, c := range cases {
		js := c.js
		t.Run(js.Algorithm, func(t *testing.T) {
			single, err := RunSingle(js)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(js, startWorkers(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAll(got.Solution), encodeAll(single.Solution)) {
				t.Fatalf("re-optimized distributed fixpoint diverged: %d records vs %d single-process",
					len(got.Solution), len(single.Solution))
			}
			if got.Supersteps != single.Supersteps {
				t.Fatalf("superstep counts diverged: distributed %d, single %d",
					got.Supersteps, single.Supersteps)
			}
			if got.PlanEpochs != c.wantEpochs {
				t.Fatalf("run announced %d plan epochs, want %d (one per shape change)", got.PlanEpochs, c.wantEpochs)
			}
			// Every coordinated re-plan is a fresh greedy plan on the
			// coordinator; the ones beyond PlanEpochs kept the shape.
			if got.Work.GreedyPlans < c.minReplans {
				t.Fatalf("coordinator re-planned %d times, want at least %d — the job no longer exercises a same-shape re-plan",
					got.Work.GreedyPlans, c.minReplans)
			}
		})
	}
}

// startFakeWorker runs an almost-honest worker in-process: it executes the
// real job (real plan, real data plane, real epoch swaps) but passes every
// control reply through mutate first, so tests can inject exactly one
// protocol-level lie and watch the coordinator catch it.
func startFakeWorker(t *testing.T, mutate func(reply *ctlMsg)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
		send := func(msg ctlMsg) error {
			mutate(&msg)
			return enc.Encode(msg)
		}
		var jobMsg ctlMsg
		if err := dec.Decode(&jobMsg); err != nil || jobMsg.Kind != kindJob {
			return
		}
		j, dataAddr, err := newJob(*jobMsg.Job, jobMsg.HostID, "127.0.0.1:0", nil)
		if err != nil {
			return
		}
		defer j.close()
		if send(ctlMsg{Kind: kindReady, DataAddr: dataAddr, Digest: j.digest}) != nil {
			return
		}
		var start ctlMsg
		if err := dec.Decode(&start); err != nil || start.Kind != kindStart {
			return
		}
		if j.open(start.DataAddrs) != nil {
			return
		}
		j.fx.SeedWorkset(j.w0)
		if send(ctlMsg{Kind: kindMeshed}) != nil {
			return
		}
		for {
			var msg ctlMsg
			if dec.Decode(&msg) != nil {
				return
			}
			switch msg.Kind {
			case kindStep:
				count, err := j.fx.StepOnce()
				if err != nil {
					send(ctlMsg{Kind: kindError, Err: err.Error()})
					continue
				}
				if send(ctlMsg{Kind: kindStepDone, Count: count, Epoch: j.epoch}) != nil {
					return
				}
			case kindEpoch:
				digest, err := j.applyEpoch(msg.Epoch, int64(msg.Count))
				if err != nil {
					send(ctlMsg{Kind: kindError, Err: err.Error()})
					continue
				}
				if send(ctlMsg{Kind: kindEpochDone, Epoch: msg.Epoch, Digest: digest}) != nil {
					return
				}
			case kindCollect:
				if send(ctlMsg{Kind: kindSolution, Frames: j.collect(jobMsg.HostID)}) != nil {
					return
				}
			case kindStop:
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestStaleEpochRejectedAtBarrier pins the barrier-time staleness check: a
// worker whose step acknowledgment carries the wrong plan epoch — as a
// worker that missed a coordinated swap would — must be rejected at the
// superstep barrier, before another round executes.
func TestStaleEpochRejectedAtBarrier(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xE90E, Parallelism: 2}
	addr := startFakeWorker(t, func(reply *ctlMsg) {
		if reply.Kind == kindStepDone {
			reply.Epoch = 7 // a plan swap the coordinator never announced
		}
	})
	_, err := Run(js, []string{addr})
	if err == nil {
		t.Fatal("coordinator accepted a step acknowledgment from a stale plan epoch")
	}
	if !strings.Contains(err.Error(), "rejected at the barrier") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestEpochDigestMismatchAborts pins the swap-time agreement check: if a
// worker's re-planned dataflow digest disagrees with the coordinator's,
// the epoch bump fails — and it fails before the coordinator swaps its own
// session, so no superstep ever runs on a mixed-plan mesh.
func TestEpochDigestMismatchAborts(t *testing.T) {
	// Same spec as the parity test: known to trigger a mid-run epoch.
	js := reshapingJob
	addr := startFakeWorker(t, func(reply *ctlMsg) {
		if reply.Kind == kindEpochDone {
			reply.Digest = "deadbeefdeadbeef"
		}
	})
	_, err := Run(js, []string{addr})
	if err == nil {
		t.Fatal("coordinator accepted an epoch acknowledgment with a foreign plan digest")
	}
	if !strings.Contains(err.Error(), "different dataflow") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestUntracedDistributedUnaffected pins the zero-cost default: a plain
// Run (nil registry) must keep TraceID zero end to end.
func TestUntracedDistributedUnaffected(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD160, Parallelism: 2}
	got, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spans != nil {
		t.Fatalf("untraced run returned %d spans", len(got.Spans))
	}
}
