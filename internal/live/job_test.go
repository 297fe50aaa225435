package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

// The job differential: a distrib.JobSpec run as a one-shot sharded
// session (RunJob) must be byte-identical to the single-process oracle
// (distrib.RunSingle) — carried over, assertion for assertion, from the
// job-mode protocol this path replaced.

// startWorkers launches n in-process worker listeners and returns their
// control addresses. In production the workers are separate processes
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
		go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: NewWorkerHost(reg)})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// assertJobMatchesOracle runs js across the workers and single-process
// and requires byte-identical solutions.
func assertJobMatchesOracle(t *testing.T, ctx string, js distrib.JobSpec, workers []string) *distrib.Result {
	t.Helper()
	want, err := distrib.RunSingle(js)
	if err != nil {
		t.Fatalf("%s: oracle: %v", ctx, err)
	}
	got, err := RunJob(js, workers, nil)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !bytes.Equal(record.EncodeBatch(nil, got.Solution), record.EncodeBatch(nil, want.Solution)) {
		t.Fatalf("%s: distributed fixpoint diverged: %d records vs %d single-process",
			ctx, len(got.Solution), len(want.Solution))
	}
	return got
}

// waitForGoroutines fails unless the goroutine count returns to baseline:
// a finished session must leave no transport reader, worker loop or
// control-connection goroutine behind.
func waitForGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before it ran\n%s", what, goruntime.NumGoroutine(), baseline, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobMatchesSingleProcess(t *testing.T) {
	jobs := []distrib.JobSpec{
		{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD157, Parallelism: 4},
		{Algorithm: "cc-cogroup", GraphKind: "uniform", GraphN: 60, GraphM: 100, Seed: 0xD158, Parallelism: 2},
		{Algorithm: "sssp", GraphKind: "uniform", GraphN: 70, GraphM: 180, Seed: 0xD159, Parallelism: 4, Source: 3},
		{Algorithm: "cc", GraphKind: "pa", GraphN: 90, GraphM: 270, Seed: 0xD15A, Parallelism: 4},
	}
	// The matrix `spinflow distributed` prints: algorithm × parallelism.
	for _, alg := range []string{"cc", "cc-cogroup", "sssp"} {
		for _, par := range []int{2, 4} {
			jobs = append(jobs, distrib.JobSpec{Algorithm: alg, GraphKind: "uniform", GraphN: 72, GraphM: 144,
				Seed: 0xD157 + uint64(par), Source: 1, Parallelism: par})
		}
	}
	for _, js := range jobs {
		name := fmt.Sprintf("%s-%s%d-par%d", js.Algorithm, js.GraphKind, js.GraphN, js.Parallelism)
		t.Run(name, func(t *testing.T) {
			got := assertJobMatchesOracle(t, name, js, startWorkers(t, 1))
			if got.Supersteps < 2 {
				t.Fatalf("suspiciously trivial run: %d supersteps", got.Supersteps)
			}
		})
	}
}

func TestJobThreeProcesses(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 96, GraphM: 200, Seed: 0xD15B, Parallelism: 6}
	assertJobMatchesOracle(t, "3-process", js, startWorkers(t, 2))
}

// TestJobSingleHost runs the coordinator with no workers: the degenerate
// 1-host placement must behave exactly like the plain driver (all
// partitions hosted, no transport).
func TestJobSingleHost(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 50, GraphM: 120, Seed: 0xD15C, Parallelism: 2, Source: 1}
	got := assertJobMatchesOracle(t, "single-host", js, nil)
	if got.Work.RemoteBatches != 0 {
		t.Fatalf("single-host run shipped %d remote batches", got.Work.RemoteBatches)
	}
}

// TestJobRemoteTrafficCounted checks the transport metrics actually
// observe the shuffle: a 2-process CC run must ship batches.
func TestJobRemoteTrafficCounted(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 200, Seed: 0xD15D, Parallelism: 4}
	got, err := RunJob(js, startWorkers(t, 1), nil)
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
// connection dialed per job) for several jobs, as the CI smoke does.
func TestWorkerSurvivesSequentialJobs(t *testing.T) {
	addrs := startWorkers(t, 1)
	for i := 0; i < 3; i++ {
		js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80,
			Seed: 0xD15E + uint64(i), Parallelism: 2}
		assertJobMatchesOracle(t, fmt.Sprintf("job %d", i), js, addrs)
	}
}

// TestJobTracePropagation is the telemetry acceptance check: a 2-process
// traced run must produce superstep spans on BOTH hosts, all under the
// single trace ID the coordinator minted, reassembled into the
// coordinator's ring — and the differential result must be unaffected.
func TestJobTracePropagation(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD15F, Parallelism: 4}
	want, err := distrib.RunSingle(js)
	if err != nil {
		t.Fatal(err)
	}
	coord := obs.NewRegistry()
	workerReg := obs.NewRegistry()
	got, err := RunJob(js, startWorkers(t, 1, workerReg), coord)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(record.EncodeBatch(nil, got.Solution), record.EncodeBatch(nil, want.Solution)) {
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
	if c := coord.Histogram("distrib_step_rtt").Snapshot().Count; c != int64(got.Supersteps) {
		t.Errorf("distrib_step_rtt count = %d, want %d", c, got.Supersteps)
	}
	// Cross-process shuffle was timed on the coordinator's transport.
	if coord.Histogram("transport_send_duration").Snapshot().Count == 0 {
		t.Error("transport_send_duration recorded nothing")
	}
}

// TestJobUntracedSpanFree pins the zero-cost default: a run without a
// registry must keep TraceID zero end to end.
func TestJobUntracedSpanFree(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD160, Parallelism: 2}
	got, err := RunJob(js, startWorkers(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spans != nil {
		t.Fatalf("untraced run returned %d spans", len(got.Spans))
	}
}

// TestShardedViewObservesBarrierRTT: the barrier histogram belongs to the
// one surviving barrier, so a sharded view with a registry gets it too —
// and an in-process view, which has no barrier peers, does not.
func TestShardedViewObservesBarrierRTT(t *testing.T) {
	for _, workers := range [][]string{startWorkers(t, 1), nil} {
		reg := obs.NewRegistry()
		cfg := ViewConfig{Config: iterative.Config{Parallelism: 2, Obs: reg}, Workers: workers}
		v, err := NewView("rtt", CC(), ringEdges(12), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := reg.Histogram("distrib_step_rtt").Snapshot().Count
		if (c > 0) != (len(workers) > 0) {
			t.Errorf("%d workers: distrib_step_rtt saw %d barrier rounds", len(workers), c)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// reshapingJob is a CC job whose mid-run re-optimization genuinely changes
// the physical plan: on a near-complete core the cost-based planner
// broadcasts the small delta set against a stream-cached edge table, and
// once the workset collapses into the tail the greedy re-plan partitions
// the edge table instead. A later, deeper collapse re-plans again to that
// same partitioned shape.
var reshapingJob = distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform-tail", GraphN: 200, GraphM: 30000,
	Seed: 0xE90C, Parallelism: 2, Reoptimize: true}

// TestJobReoptimizeMatchesSingleProcess is the plan-epoch acceptance
// check: a 2-process run with mid-run re-optimization enabled must produce
// the byte-identical fixpoint, in the same number of supersteps, as the
// single-process driver running the identical spec — and announce a
// coordinated plan epoch exactly when a re-plan changes the physical
// shape. The CC job re-plans twice and changes shape once; the SSSP job's
// re-plans all keep the running shape, so its workers never hear of them.
func TestJobReoptimizeMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		js         distrib.JobSpec
		wantEpochs int
		minReplans int64
	}{
		{reshapingJob, 1, 2},
		{distrib.JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 150, GraphM: 450, Seed: 0xE90D, Parallelism: 4, Source: 2, Reoptimize: true}, 0, 1},
	}
	for _, c := range cases {
		js := c.js
		t.Run(js.Algorithm, func(t *testing.T) {
			single, err := distrib.RunSingle(js)
			if err != nil {
				t.Fatal(err)
			}
			got := assertJobMatchesOracle(t, "re-optimized", js, startWorkers(t, 1))
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

// lyingWriter sits between a real WorkerHost and its control connection:
// every reply passes through mutate first, which may rewrite it or ask for
// the connection to be dropped instead of answering.
type lyingWriter struct {
	conn   net.Conn
	mutate func(reply *shardMsg) (hangUp bool)
}

// Write sees exactly one message: json.Encoder writes each Encode whole.
func (w lyingWriter) Write(p []byte) (int, error) {
	var msg shardMsg
	if err := json.Unmarshal(p, &msg); err != nil {
		return 0, err
	}
	if w.mutate(&msg) {
		w.conn.Close()
		return 0, io.ErrClosedPipe
	}
	out, err := json.Marshal(msg)
	if err != nil {
		return 0, err
	}
	if _, err := w.conn.Write(append(out, '\n')); err != nil {
		return 0, err
	}
	return len(p), nil
}

// startFakeWorker runs an almost-honest worker in-process: the real
// WorkerHost serves the session (real plan, real data plane, real epoch
// swaps), but every control reply passes through mutate, so a test can
// inject exactly one protocol-level lie — or a dropped connection — and
// watch the coordinator catch it.
func startFakeWorker(t *testing.T, mutate func(reply *shardMsg) (hangUp bool)) string {
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
		dec := json.NewDecoder(conn)
		var open json.RawMessage
		if dec.Decode(&open) != nil {
			return
		}
		NewWorkerHost(nil).ServeView(open, dec, json.NewEncoder(lyingWriter{conn, mutate}))
	}()
	return ln.Addr().String()
}

// TestStaleEpochRejectedAtBarrier pins the barrier-time staleness check: a
// worker whose step acknowledgment carries the wrong plan epoch — as a
// worker that missed a coordinated swap would — must be rejected at the
// superstep barrier, before another round executes.
func TestStaleEpochRejectedAtBarrier(t *testing.T) {
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xE90E, Parallelism: 2}
	var steps atomic.Int32
	addr := startFakeWorker(t, func(reply *shardMsg) bool {
		if reply.Kind == viewStepDone {
			steps.Add(1)
			reply.Epoch = 7 // a plan swap the coordinator never announced
		}
		return false
	})
	_, err := RunJob(js, []string{addr}, nil)
	if err == nil {
		t.Fatal("coordinator accepted a step acknowledgment from a stale plan epoch")
	}
	if !strings.Contains(err.Error(), "rejected at the barrier") {
		t.Fatalf("wrong rejection: %v", err)
	}
	if n := steps.Load(); n != 1 {
		t.Fatalf("%d supersteps were acknowledged, want the first one rejected", n)
	}
}

// TestEpochDigestMismatchAborts pins the swap-time agreement check: if a
// worker's re-planned dataflow digest disagrees with the coordinator's,
// the epoch bump fails — and it fails before the coordinator swaps its own
// session, so no superstep ever runs on a mixed-plan mesh.
func TestEpochDigestMismatchAborts(t *testing.T) {
	// Same spec as the parity test: known to trigger a mid-run epoch.
	var swaps, stepsAfter atomic.Int32
	addr := startFakeWorker(t, func(reply *shardMsg) bool {
		switch {
		case reply.Kind == viewEpochDone:
			swaps.Add(1)
			reply.Digest = "deadbeefdeadbeef"
		case reply.Kind == viewStepDone && swaps.Load() > 0:
			stepsAfter.Add(1)
		}
		return false
	})
	_, err := RunJob(reshapingJob, []string{addr}, nil)
	if err == nil {
		t.Fatal("coordinator accepted an epoch acknowledgment with a foreign plan digest")
	}
	if !strings.Contains(err.Error(), "plan epoch") || !strings.Contains(err.Error(), "deadbeefdeadbeef") {
		t.Fatalf("wrong rejection: %v", err)
	}
	if swaps.Load() != 1 || stepsAfter.Load() != 0 {
		t.Fatalf("%d epochs announced, %d supersteps ran after the mismatch — want the run aborted at the first",
			swaps.Load(), stepsAfter.Load())
	}
}

// TestJobLostWorkerAtCollectIsAnError: a worker that vanishes when asked
// for its partitions must fail the job — within a deadline, never as a
// short fixpoint — and leave nothing behind.
func TestJobLostWorkerAtCollectIsAnError(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 60, GraphM: 120, Seed: 0xE90F, Parallelism: 2}
	baseline := goruntime.NumGoroutine()
	addr := startFakeWorker(t, func(reply *shardMsg) bool { return reply.Kind == viewSolution })
	type outcome struct {
		res *distrib.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunJob(js, []string{addr}, nil)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("job lost a worker at collect time and still returned %d records", len(o.res.Solution))
		}
		if !strings.Contains(o.err.Error(), "collect host 1") {
			t.Fatalf("error does not name the lost host: %v", o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job hung on a worker that dropped its connection at collect time")
	}
	waitForGoroutines(t, baseline, "lost worker")
	if left := spillFiles(t); len(left) != 0 {
		t.Fatalf("scratch files left behind: %v", left)
	}
}

// TestSnapshotNeverPartial pins the view-side half of the same fix: a
// sharded view whose worker cannot be collected returns nothing from
// Snapshot — not the coordinator's half passed off as the whole — and
// reports why through Stats.
func TestSnapshotNeverPartial(t *testing.T) {
	addr := startFakeWorker(t, func(reply *shardMsg) bool { return reply.Kind == viewSolution })
	v, err := NewView("half", CC(), ringEdges(16), ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Kill()
	if snap := v.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot with a lost worker returned %d records", len(snap))
	}
	if e := v.Stats().LastError; !strings.Contains(e, "collect host 1") {
		t.Fatalf("LastError = %q, want the failed collect", e)
	}
}

// TestOwnerFailureIsNotAMiss: a key whose owner cannot answer view_query is
// not "absent". Query has no error to return, so it reports through
// Stats. A delete batch never asks: it scopes its repair from the graph
// replica, so it repairs through the same failure and matches the oracle.
func TestOwnerFailureIsNotAMiss(t *testing.T) {
	var failing atomic.Bool
	addr := startFakeWorker(t, func(reply *shardMsg) bool {
		if reply.Kind == viewValue && failing.Load() {
			*reply = shardMsg{Kind: viewError, Err: "owner cannot answer"}
		}
		return false
	})
	const n = 16
	// The ring beside 32 other vertices: its repair stays bounded.
	initial := append(ringEdges(n), islandEdges(4, 8, 100)...)
	v, err := NewView("owner", CC(), initial, ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Kill()
	model := NewGraphState()
	for _, mu := range initial {
		model.Apply(mu)
	}
	remote := int64(-1)
	for k := int64(0); k < n && remote < 0; k++ {
		if v.sess.core.place[v.sess.core.sol.PartitionFor(k)] == 1 {
			remote = k
		}
	}
	if remote < 0 {
		t.Fatal("no key of the ring lives on the worker")
	}
	if _, ok := v.Query(remote); !ok {
		t.Fatalf("key %d not found on a healthy worker", remote)
	}
	if e := v.Stats().LastError; e != "" {
		t.Fatalf("healthy query recorded %q", e)
	}

	failing.Store(true)
	if r, ok := v.Query(remote); ok {
		t.Fatalf("failed lookup returned %+v", r)
	}
	if e := v.Stats().LastError; !strings.Contains(e, "host 1") || !strings.Contains(e, "owner cannot answer") {
		t.Fatalf("LastError = %q, want the failed query", e)
	}
	partial := v.Stats().PartialRecomputes
	mutateAndModel(t, v, model, DeleteEdge(remote, (remote+1)%n))
	if err := v.Flush(); err != nil {
		t.Fatalf("deleting the unreachable owner's edge: %v", err)
	}
	assertCC(t, "delete beside a failing owner", v, model)
	if got := v.Stats().PartialRecomputes; got != partial+1 {
		t.Fatalf("PartialRecomputes %d -> %d, want the bounded repair", partial, got)
	}
}

// TestShardedDeleteRounds pins a sharded delete batch's control traffic:
// view_apply, view_replan, then the candidate rounds and supersteps —
// no endpoint lookups, no per-removal rounds, no occupancy poll — so one
// removal and eight in separate components cost the same messages.
func TestShardedDeleteRounds(t *testing.T) {
	var mu sync.Mutex
	replies := map[string]int{}
	addr := startFakeWorker(t, func(reply *shardMsg) bool {
		mu.Lock()
		replies[reply.Kind]++
		mu.Unlock()
		return false
	})
	v, err := NewView("rounds", CC(), islandEdges(64, 20, 0), ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Kill()
	// Each batch cuts the same ring edge of identical islands, so the
	// repairs take the same supersteps.
	batch := func(from, to int64) map[string]int {
		t.Helper()
		partial := v.Stats().PartialRecomputes
		mu.Lock()
		clear(replies)
		mu.Unlock()
		for c := from; c < to; c++ {
			if err := v.Mutate(DeleteEdge(32*c+3, 32*c+4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := maps.Clone(replies)
		mu.Unlock()
		if st := v.Stats(); st.PartialRecomputes != partial+1 || st.FullRecomputes != 0 {
			t.Fatalf("%d removals: partial/full recomputes %d/%d, want one bounded repair", to-from, st.PartialRecomputes-partial, st.FullRecomputes)
		}
		return got
	}
	one, eight := batch(0, 1), batch(1, 9)
	if !maps.Equal(one, eight) {
		t.Fatalf("control replies by kind: 1 removal %v, 8 removals %v", one, eight)
	}
	for kind := range one {
		switch kind {
		case viewApplied, viewReplanned, viewCand, viewSeeded, viewStepDone:
		default:
			t.Fatalf("a delete batch drew %d %q replies (all: %v)", one[kind], kind, one)
		}
	}
	if one[viewApplied] != 1 || one[viewReplanned] != 1 {
		t.Fatalf("want one apply and one replan round: %v", one)
	}
}

// TestOneWorkerServesJobsAndViews is what only one protocol can promise:
// the same worker process serves a job, then a sharded view (mutated and
// queried), then another job — on a fresh control connection each, every
// session ending when its coordinator hangs up — every result
// byte-identical to its oracle, no transport error counted on the worker,
// and nothing left behind.
func TestOneWorkerServesJobsAndViews(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	// The leg keeps its name from when a reused-connection leg ran beside it;
	// a control connection now carries exactly one session.
	t.Run("reuse=false", func(t *testing.T) {
		wreg := obs.NewRegistry()
		workers := startWorkers(t, 1, wreg)
		baseline := goruntime.NumGoroutine()

		assertJobMatchesOracle(t, "first job",
			distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD15E, Parallelism: 2}, workers)

		cfg := ViewConfig{Config: iterative.Config{Parallelism: 2}}
		local, err := NewView("local", CC(), ringEdges(10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		sharded, err := NewView("sharded", CC(), ringEdges(10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*LiveView{local, sharded} {
			if err := v.Mutate(DeleteEdge(3, 4), DeleteEdge(7, 8), InsertEdge(20, 21), InsertEdge(21, 4)); err != nil {
				t.Fatal(err)
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int64{0, 4, 7, 8, 21} {
			want, _ := local.Query(k)
			if got, ok := sharded.Query(k); !ok || !got.Equal(want) {
				t.Fatalf("query %d: sharded %+v (found %v), local %+v", k, got, ok, want)
			}
		}
		if !bytes.Equal(record.EncodeBatch(nil, sharded.Snapshot()), record.EncodeBatch(nil, local.Snapshot())) {
			t.Fatal("sharded view diverged from the in-process view")
		}
		for _, v := range []*LiveView{local, sharded} {
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
		}

		assertJobMatchesOracle(t, "second job",
			distrib.JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 50, GraphM: 150, Seed: 0xD161, Parallelism: 4, Source: 2}, workers)

		waitForGoroutines(t, baseline, "job → view → job")
		if n := wreg.Counters().Snapshot().TransportErrors; n != 0 {
			t.Fatalf("the worker counted %d transport errors across three sessions", n)
		}
		if left := spillFiles(t); len(left) != 0 {
			t.Fatalf("scratch files left behind: %v", left)
		}
	})
}

// TestRegistryCountsEverySession pins where telemetry lands when one
// process hosts several sessions: a worker's registry exports the work of
// every view it serves, not only the newest one's, and a coordinator's
// registry accumulates its jobs while each Result.Work stays that job's
// own delta.
func TestRegistryCountsEverySession(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	wreg := obs.NewRegistry()
	workers := startWorkers(t, 1, wreg)

	cfg := ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: workers}
	first, err := NewView("first", CC(), ringEdges(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := NewView("second", CC(), ringEdges(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// Only the older view works from here on; its worker-side share must
	// still show on the worker's registry.
	before := wreg.Counters().Snapshot()
	if err := first.Mutate(InsertEdge(20, 21), InsertEdge(21, 4)); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := wreg.Counters().Snapshot().Sub(before); d.UDFInvocations == 0 {
		t.Fatalf("worker registry missed the older view's flush: %+v", d)
	}

	creg := obs.NewRegistry()
	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xC0C0, Parallelism: 2}
	var sum int64
	for range 2 {
		res, err := RunJob(js, workers, creg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Work.UDFInvocations == 0 {
			t.Fatalf("job counted no work: %+v", res.Work)
		}
		sum += res.Work.UDFInvocations
	}
	if got := creg.Counters().Snapshot().UDFInvocations; got != sum {
		t.Fatalf("coordinator registry holds %d UDF calls, the jobs' own deltas sum to %d", got, sum)
	}
}

// TestCleanCloseCountsNoTransportErrors: a sharded view's Close is a
// hang-up, not a fault. The worker tears its data plane down first, so the
// coordinator reads EOF on every data connection while its own transport
// is still open; none of that may count as a transport error, on either
// side.
func TestCleanCloseCountsNoTransportErrors(t *testing.T) {
	creg, wreg := obs.NewRegistry(), obs.NewRegistry()
	workers := startWorkers(t, 1, wreg)
	cfg := ViewConfig{Config: iterative.Config{Parallelism: 2, Metrics: creg.Counters(), Obs: creg}, Workers: workers}
	for i := range 20 {
		v, err := NewView(fmt.Sprintf("v%d", i), CC(), ringEdges(10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := creg.Counters().Snapshot().TransportErrors; n != 0 {
		t.Fatalf("the coordinator counted %d transport errors over 20 clean closes", n)
	}
	if n := wreg.Counters().Snapshot().TransportErrors; n != 0 {
		t.Fatalf("the worker counted %d transport errors over 20 clean closes", n)
	}
}

// TestJobDialRetriesLateWorker pins the session-open retry policy: a
// worker whose listener comes up *after* the coordinator starts dialing —
// the normal `spinflow serve -workers N` race, where serve spawns the
// worker processes and immediately opens sessions — must be reached by
// the bounded-backoff dial, and the job must complete normally.
func TestJobDialRetriesLateWorker(t *testing.T) {
	// Reserve an address, then free it so the dial's first attempts are
	// refused; the real worker binds it a few backoff rounds later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	bound := make(chan net.Listener, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		late, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail loudly below
		}
		bound <- late
		distrib.ServeWorkerWith(late, distrib.ServeWorkerOpts{Views: NewWorkerHost(nil)})
	}()
	t.Cleanup(func() {
		select {
		case late := <-bound:
			late.Close()
		default:
		}
	})

	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD1A1, Parallelism: 2}
	assertJobMatchesOracle(t, "late worker", js, []string{addr})
}
