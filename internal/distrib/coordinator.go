package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Result is the outcome of a distributed run, as seen by the coordinator.
type Result struct {
	// Solution is the converged solution set assembled from every
	// process's hosted partitions, in canonical (record.Less) order —
	// the byte-comparable form the differential harness checks.
	Solution []record.Record
	// Supersteps is the number of barrier rounds to the fixpoint.
	Supersteps int
	// PlanEpochs is how many coordinated mid-run re-optimizations the run
	// applied (JobSpec.Reoptimize only).
	PlanEpochs int
	// Work is the coordinator process's counter snapshot (remote batches
	// and bytes measure only host 0's share of the shuffle).
	Work metrics.Snapshot
	// Spans is the run's reassembled cross-process trace (RunObs with a
	// registry only): the coordinator's own spans plus every worker's,
	// all under one trace ID, distinguishable by Span.Host.
	Spans []obs.Span
}

// workerConn is the coordinator's control connection to one worker
// process.
type workerConn struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// expect reads the next control message and requires one of the given
// kinds; a kindError reply is surfaced as the worker's job error.
func (w *workerConn) expect(kinds ...string) (ctlMsg, error) {
	var msg ctlMsg
	if err := w.dec.Decode(&msg); err != nil {
		return msg, fmt.Errorf("distrib: worker connection: %w", err)
	}
	if msg.Kind == kindError {
		return msg, fmt.Errorf("distrib: worker failed: %s", msg.Err)
	}
	for _, k := range kinds {
		if msg.Kind == k {
			return msg, nil
		}
	}
	return msg, fmt.Errorf("distrib: expected %v from worker, got %q", kinds, msg.Kind)
}

// coordBarrier plugs the worker pool into the shared superstep driver: the
// coordinator's own job runs inside iterative's driver loop, and this
// barrier is how each round reaches the other processes. Release fans the
// step out to every worker before the coordinator computes its own share —
// the exchanges require all processes in the round concurrently, since
// every process's consumers wait on every process's producers. Collect
// gathers the workers' local next-workset counts into the global one the
// driver converges on, rejecting any worker whose plan epoch disagrees.
type coordBarrier struct {
	workers []*workerConn
	j       *job
	reg     *obs.Registry
	// epoch is the coordinated plan epoch every process must be at; it
	// advances in epochBump only after all workers acknowledge the swap.
	epoch     int
	stepStart time.Time
}

func (b *coordBarrier) Release(step int) error {
	b.stepStart = time.Now()
	for _, w := range b.workers {
		if err := w.enc.Encode(ctlMsg{Kind: kindStep, Epoch: b.epoch}); err != nil {
			return err
		}
	}
	return nil
}

func (b *coordBarrier) Collect(step, localNext int) (int, error) {
	total := localNext
	for _, w := range b.workers {
		done, err := w.expect(kindStepDone)
		if err != nil {
			return 0, err
		}
		if done.Epoch != b.epoch {
			return 0, fmt.Errorf("distrib: superstep %d: worker at plan epoch %d, coordinator at %d — rejected at the barrier",
				step, done.Epoch, b.epoch)
		}
		total += done.Count
	}
	if b.reg != nil {
		// Release-to-all-done round trip: the barrier as the
		// coordinator experiences it, including every peer's compute.
		b.reg.Histogram("distrib_step_rtt").ObserveSince(b.stepStart)
	}
	return total, nil
}

// epochBump is the driver's OnEpoch hook: the coordinator's driver decided
// to re-plan at the barrier, and phys is the plan it is about to swap to.
// Broadcast the epoch with the global workset estimate, wait for every
// worker to re-plan and swap, and verify their digests against ours —
// only then does the driver swap the coordinator's own session, so a
// worker that fails the swap aborts the run before any process executes
// under a mixed-plan mesh.
func (b *coordBarrier) epochBump(epoch int, est int64, phys *optimizer.PhysPlan) error {
	digest := phys.Fingerprint()
	for _, w := range b.workers {
		if err := w.enc.Encode(ctlMsg{Kind: kindEpoch, Epoch: epoch, Count: int(est), Digest: digest}); err != nil {
			return err
		}
	}
	for _, w := range b.workers {
		done, err := w.expect(kindEpochDone)
		if err != nil {
			return err
		}
		if done.Digest != digest {
			return fmt.Errorf("distrib: plan epoch %d: worker re-planned a different dataflow (digest %.12s, coordinator %.12s)",
				epoch, done.Digest, digest)
		}
	}
	b.epoch = epoch
	b.j.phys = phys
	b.j.digest = digest
	b.j.epoch = epoch
	return nil
}

// Run executes js as a distributed session: this process is host 0 (the
// coordinator, hosting the first partition range) and each workerAddrs
// entry is the control address of one already-listening worker process
// (hosts 1..N). js.Hosts is overridden to 1+len(workerAddrs).
//
// The coordinator builds the same deterministic job state as every
// worker, verifies the workers' plan digests against its own, meshes the
// data plane, and then drives the superstep barrier: each round it
// releases every process (itself included), gathers the local
// next-workset counts, and stops at the first globally empty workset —
// local emptiness means nothing, a process's workset can refill entirely
// from its peers' shipped records.
func Run(js JobSpec, workerAddrs []string) (*Result, error) {
	return RunObs(js, workerAddrs, nil)
}

// RunObs is Run with telemetry: when reg is non-nil the coordinator mints
// a trace ID (unless the spec carries one), ships it to every worker with
// the job, records its own superstep/operator/ship spans and a
// distrib_step_rtt histogram sample per barrier round, and merges the
// spans each worker returns at collect time — so reg's ring ends up
// holding the whole run's timeline, and Result.Spans returns it.
func RunObs(js JobSpec, workerAddrs []string, reg *obs.Registry) (*Result, error) {
	js = js.normalized()
	js.Hosts = 1 + len(workerAddrs)
	if reg != nil && js.TraceID == 0 {
		js.TraceID = uint64(obs.NewTraceID())
	}

	j, dataAddr, err := newJob(js, 0, "127.0.0.1:0", reg)
	if err != nil {
		return nil, err
	}
	defer j.close()

	// Control plane: dial every worker, assign the job, gather readiness.
	workers := make([]*workerConn, len(workerAddrs))
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.enc.Encode(ctlMsg{Kind: kindStop})
				w.conn.Close()
			}
		}
	}()
	dataAddrs := make([]string, js.Hosts)
	dataAddrs[0] = dataAddr
	for i, addr := range workerAddrs {
		// Session open tolerates a worker that is still starting: the dial
		// retries with bounded backoff. Mid-run failures stay fail-fast.
		conn, err := DialWorker(addr, MeshTimeout)
		if err != nil {
			return nil, err
		}
		w := &workerConn{conn: conn, dec: json.NewDecoder(conn), enc: json.NewEncoder(conn)}
		workers[i] = w
		if err := w.enc.Encode(ctlMsg{Kind: kindJob, Job: &js, HostID: i + 1}); err != nil {
			return nil, fmt.Errorf("distrib: assign job to %s: %w", addr, err)
		}
		ready, err := w.expect(kindReady)
		if err != nil {
			return nil, err
		}
		if ready.Digest != j.digest {
			return nil, fmt.Errorf("distrib: worker %s planned a different dataflow (digest %.12s, coordinator %.12s) — mixed binaries?",
				addr, ready.Digest, j.digest)
		}
		dataAddrs[i+1] = ready.DataAddr
	}

	// Mesh the data plane everywhere before any superstep runs.
	for _, w := range workers {
		if err := w.enc.Encode(ctlMsg{Kind: kindStart, DataAddrs: dataAddrs}); err != nil {
			return nil, err
		}
	}
	if err := j.open(dataAddrs); err != nil {
		return nil, err
	}
	for _, w := range workers {
		if _, err := w.expect(kindMeshed); err != nil {
			return nil, err
		}
	}

	// Drive to the fixpoint through the shared superstep driver: the same
	// loop that runs the single-process engines runs here, with the worker
	// pool plugged in as the barrier and — when js.Reoptimize is set — the
	// epoch hook coordinating mid-run plan swaps across every process.
	res := &Result{}
	b := &coordBarrier{workers: workers, j: j, reg: reg}
	ir, err := j.fx.RunDriven(j.w0, iterative.DriveHooks{Barrier: b, OnEpoch: b.epochBump})
	if err != nil {
		if errors.Is(err, iterative.ErrNoProgress) {
			return nil, fmt.Errorf("distrib: no fixpoint after %d supersteps", js.MaxSupersteps)
		}
		return nil, err
	}
	res.Supersteps = ir.Supersteps
	res.PlanEpochs = ir.PlanEpochs

	// Assemble the solution: every process contributes its hosted
	// partitions; the canonical sort makes the result byte-comparable
	// regardless of partition or backend iteration order.
	sol := append([]record.Record(nil), decodeOwn(j)...)
	for _, w := range workers {
		if err := w.enc.Encode(ctlMsg{Kind: kindCollect}); err != nil {
			return nil, err
		}
		msg, err := w.expect(kindSolution)
		if err != nil {
			return nil, err
		}
		recs, err := decodeFrames(msg.Frames)
		if err != nil {
			return nil, err
		}
		sol = append(sol, recs...)
		if reg != nil {
			// Fold the worker's spans into our ring: after the last
			// worker, the ring holds the whole run under one trace ID.
			for _, sp := range msg.Spans {
				reg.Trace().RecordSpan(sp)
			}
		}
	}
	sort.Slice(sol, func(x, y int) bool { return record.Less(sol[x], sol[y]) })
	res.Solution = sol
	res.Work = j.m.Snapshot()
	if reg != nil {
		res.Spans = reg.Trace().SpansFor(obs.TraceID(js.TraceID))
	}
	return res, nil
}

// decodeOwn reads the coordinator's hosted partitions back out of the
// same framed form the workers ship, so both sides of the assembly go
// through one code path.
func decodeOwn(j *job) []record.Record {
	recs, err := decodeFrames(j.collect(0))
	if err != nil {
		// collect produced the frames locally; a decode failure here is a
		// codec bug, not an I/O condition.
		panic(err)
	}
	return recs
}

// decodeFrames decodes concatenated record frames into a flat slice.
func decodeFrames(frames []byte) ([]record.Record, error) {
	fr := record.NewFrameReader(bytes.NewReader(frames))
	var out []record.Record
	for {
		b, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("distrib: solution payload: %w", err)
		}
		out = append(out, b...)
	}
}
