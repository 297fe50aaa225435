package live

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// ShardStat reports one host's share of a sharded view's resident
// solution set.
type ShardStat struct {
	// Host is the session host ID (0 is the serving process itself).
	Host int `json:"host"`
	// Records counts the records in the partitions this host owns. Bytes
	// is the host's whole resident solution footprint: every host keeps a
	// full replica set (hosted partitions exact, the rest stale), and the
	// backend accounts bytes for the set as a whole.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// session is the execution backend of every LiveView: the thing that holds
// the resident fixpoint and absorbs mutation batches into it, while the
// view keeps the micro-batching, the durability lifecycle and the serving
// locks. It is the coordinator's own shardCore (host 0, graph aliased to
// the view's) plus one control connection per worker host 1..H-1 — none
// for a view without ViewConfig.Workers. Maintenance runs the coordinated
// protocol below; reads route by partition placement.
//
// Every method is called under the view's maintenance lock except Lookup,
// Snapshot and shards, which run under the shared read lock and must
// therefore be safe for concurrent use with each other.
type session struct {
	v     *LiveView
	core  *shardCore
	conns []*ctlConn // conns[i] is host i+1
	// rtt is the distrib_step_rtt histogram: one sample per barrier round,
	// release to last acknowledgment. Nil — and no clock is read — without
	// workers or a telemetry registry.
	rtt       *obs.Histogram
	stepStart time.Time
	step      *time.Timer // the deadline of the barrier step in flight
}

// controlRoundTimeout bounds every coordinator wait on the workers: a
// control round, one barrier step from Release to Collect, or one call.
var controlRoundTimeout = distrib.MeshTimeout

// arm starts one wait's deadline, past which the session is cut. A
// one-host session arms nothing.
func (s *session) arm() *time.Timer {
	if len(s.conns) == 0 {
		return nil
	}
	return time.AfterFunc(controlRoundTimeout, s.cut)
}

func disarm(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// cut ends a wait past its deadline: the control connections and the
// data plane close, so a read blocked on a stalled worker fails wherever
// it is — a control reply, or the coordinator's share of a superstep
// waiting for the worker's exchange data. hangUp tears the core down.
func (s *session) cut() {
	for _, c := range s.conns {
		c.late.Store(true)
		c.conn.Close()
	}
	if s.core.tr != nil {
		s.core.tr.Cut(errControlDeadline)
	}
}

// call is one request/reply exchange with a host: host 0 serves it in
// process, a worker under one deadline and its connection's lock.
func (s *session) call(host int, msg shardMsg) (shardMsg, error) {
	if host == 0 {
		return s.core.serve(msg)
	}
	defer disarm(s.arm())
	c := s.conns[host-1]
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(msg); err != nil {
		return shardMsg{}, err
	}
	return c.recv(msg.Kind)
}

// openSession builds the view's session over its current graph. Normally
// the cold fixpoint runs before the session is handed out, and its run is
// returned (nil when there was nothing to drive). A recovering session
// opens with an empty solution on every host instead: the caller streams a
// snapshot into it through Load.
func openSession(v *LiveView, recovering bool) (*session, *iterative.IncrementalResult, error) {
	cfg := v.cfg.Config
	cfg.Hosts, cfg.Host = 1+len(v.cfg.Workers), 0
	core, w0, err := newShardCore(v.m, cfg, v.gs, recovering, &v.stats, context.Background())
	if err != nil {
		return nil, nil, err
	}
	s := &session{v: v, core: core}
	if len(v.cfg.Workers) > 0 {
		err = s.enlistWorkers(cfg, recovering)
	}
	var cold *iterative.IncrementalResult
	if err == nil && len(w0) > 0 {
		// The cold build is not maintenance: it stays out of the counters.
		cold, err = s.drive(w0)
	}
	if err != nil {
		s.hangUp()
		return nil, nil, err
	}
	return s, cold, nil
}

// enlistWorkers dials every worker (bounded-backoff — they may still be
// starting), opens the remote session shares with the graph in the
// snapshot's own encoding, cross-checks the plan digests, and connects the
// data-plane mesh.
func (s *session) enlistWorkers(cfg iterative.Config, recovering bool) error {
	v := s.v
	r, err := recipeOf(v.m, v.cfg)
	if err != nil {
		return err
	}
	spec := shardSpec{
		recipe: r, Name: v.name, Hosts: cfg.Hosts,
		TraceID: uint64(cfg.TraceID), TraceLabel: cfg.TraceLabel,
	}
	if cfg.Obs != nil {
		s.rtt = cfg.Obs.Histogram("distrib_step_rtt")
	}
	var graph bytes.Buffer
	if err := writeCheckpoint(&graph, snapshotKindPrefix+v.m.Name(), 0, func(cw *checkpointWriter) error {
		return writeGraph(cw, v.gs)
	}); err != nil {
		return err
	}
	dial := v.cfg.dial
	if dial == nil {
		dial = distrib.DialWorker
	}
	for _, waddr := range v.cfg.Workers {
		conn, err := dial(waddr, distrib.MeshTimeout)
		if err != nil {
			return fmt.Errorf("live: view %q worker %s: %w", v.name, waddr, err)
		}
		s.conns = append(s.conns, newCtlConn(conn))
	}
	dataAddrs := []string{s.core.dataAddr}
	for i, waddr := range v.cfg.Workers {
		ready, err := s.call(i+1, shardMsg{
			Kind: viewOpen, Spec: &spec, HostID: i + 1, Frames: graph.Bytes(), Full: !recovering,
		})
		if err == nil {
			err = s.sameDigest(i+1, ready)
		}
		if err != nil {
			return fmt.Errorf("live: view %q open on %s: %w", v.name, waddr, err)
		}
		dataAddrs = append(dataAddrs, ready.DataAddr)
	}
	// Host 0 is already listening and higher hosts dial lower ones, so the
	// workers mesh while the coordinator connects.
	return s.round(roundMesh, all(shardMsg{Kind: viewStart, DataAddrs: dataAddrs}), nil)
}

// Load streams one frame of a recovered solution into the session: every
// host keeps a full replica set, so every host absorbs every frame (the
// partitions it hosts become authoritative). Frames arrive one at a time
// from the snapshot reader; nothing accumulates outside the sets.
func (s *session) Load(b record.Batch) error {
	return s.round(roundLoad, all(shardMsg{Kind: viewLoad, recs: b}), nil)
}

// controlRound names one control fan-out and carries its profiler labels,
// {layer=live, op=<name>}, built once.
type controlRound struct {
	name   string
	labels context.Context
}

func newRound(name string) controlRound {
	return controlRound{name, pprof.WithLabels(context.Background(), pprof.Labels("layer", "live", "op", name))}
}

var (
	roundMesh   = newRound("mesh")
	roundLoad   = newRound("load")
	roundEpoch  = newRound("plan epoch")
	roundApply  = newRound("apply")
	roundGather = newRound("gather")
	roundSeed   = newRound("seed")
	roundReplan = newRound("replan")
	roundStep   = newRound("step")
)

// label runs the coordinator's goroutine under labels, which the core's
// own labelled work then puts back, and returns the labels they replace:
// defer s.label(s.label(l)) runs the rest of a function under l and puts
// the labels in effect before back when it returns, so a plan-epoch round
// inside drive ends under drive's labels, and a round of a flush under the
// flush's caller's (FlushContext).
func (s *session) label(labels context.Context) (prev context.Context) {
	prev, s.core.labels = s.core.labels, labels
	pprof.SetGoroutineLabels(labels)
	return prev
}

// round is one control fan-out under one deadline: req(h) goes to every
// worker h, host 0 serves req(0) while they work, and every host's reply,
// host 0's first, goes to got (if any). Host 0's share runs under the
// round's profiler labels, and the labels in effect before go back on
// afterwards (label), as the runtime and the merge put back theirs. A view
// with a telemetry registry records it as a PhaseRound span.
func (s *session) round(r controlRound, req func(host int) shardMsg, got func(host int, reply shardMsg) error) error {
	if s.v.ring != nil {
		defer s.v.span(obs.PhaseRound, r.name, time.Now())
	}
	defer s.label(s.label(r.labels))
	defer disarm(s.arm())
	for i, c := range s.conns {
		if err := c.send(req(i + 1)); err != nil {
			return fmt.Errorf("live: %s host %d: %w", r.name, i+1, err)
		}
	}
	msg := req(0)
	for h := range 1 + len(s.conns) {
		var reply shardMsg
		var err error
		switch {
		case h > 0:
			reply, err = s.conns[h-1].recv(msg.Kind)
		case msg.Kind == viewEpoch:
			continue // host 0's driver swaps its own plan once OnEpoch returns
		default:
			reply, err = s.core.serve(msg)
		}
		if err == nil && got != nil {
			err = got(h, reply)
		}
		if err != nil {
			return fmt.Errorf("live: %s host %d: %w", r.name, h, err)
		}
	}
	return nil
}

// all sends the same request to every host.
func all(msg shardMsg) func(int) shardMsg { return func(int) shardMsg { return msg } }

// sameDigest checks a host's reported plan against the coordinator's:
// every host plans independently over its replica, and any difference
// means the replicas have diverged.
func (s *session) sameDigest(host int, reply shardMsg) error {
	if reply.Digest != s.core.digest {
		return fmt.Errorf("planned digest %s, coordinator has %s (replica divergence)", reply.Digest, s.core.digest)
	}
	return nil
}

// shardBarrier globalizes superstep convergence across the session's
// hosts: Release fans view_step out before the coordinator computes its
// own share (the exchanges interlock — every host's consumers wait on
// every host's producers), Collect sums every host's next-workset count.
// The step runs under one deadline, armed by Release and stopped by
// Collect (or by drive, when the step fails in between). Both directions
// carry the plan epoch: a host that missed (or imagined) a coordinated
// plan swap is rejected here, before another round executes. The
// coordinator's RunDriven drives it.
type shardBarrier struct{ s *session }

func (b shardBarrier) Release(step int) error {
	s := b.s
	if s.rtt != nil {
		s.stepStart = time.Now()
	}
	s.step = s.arm()
	for i, c := range s.conns {
		if err := c.send(shardMsg{Kind: viewStep, Epoch: s.core.epoch}); err != nil {
			return fmt.Errorf("live: superstep %d release host %d: %w", step, i+1, err)
		}
	}
	return nil
}

func (b shardBarrier) Collect(step, localNext int) (int, error) {
	s := b.s
	defer disarm(s.step)
	total := localNext
	for i, c := range s.conns {
		reply, err := c.recv(viewStep)
		if err == nil && reply.Epoch != s.core.epoch {
			err = fmt.Errorf("at plan epoch %d, coordinator at %d — rejected at the barrier", reply.Epoch, s.core.epoch)
		}
		if err != nil {
			return 0, fmt.Errorf("live: superstep %d host %d: %w", step, i+1, err)
		}
		total += reply.Count
	}
	if s.rtt != nil {
		s.rtt.ObserveSince(s.stepStart)
	}
	return total, nil
}

// epochBump is the driver's OnEpoch hook, reached only by specs that set
// Reoptimize: the coordinator's driver decided at the barrier to re-plan
// to a different physical shape, and phys is the plan it is about to swap
// to. Every worker re-plans for the same global workset estimate, swaps
// its session and answers with its fingerprint; a mismatch fails the run
// before the coordinator swaps, so no superstep ever executes on a
// mixed-plan mesh. Epochs number the session's swaps, not one run's.
func (s *session) epochBump(_ int, est int64, phys *optimizer.PhysPlan) error {
	c := s.core
	c.digest = phys.Fingerprint()
	err := s.round(roundEpoch, all(shardMsg{Kind: viewEpoch, Epoch: c.epoch + 1, Count: int(est)}), s.sameDigest)
	if err == nil {
		c.epoch++
	}
	return err
}

// drive runs the coordinator's resident fixpoint from the workset to
// convergence, every worker stepping in lockstep from what it has seeded.
// It runs under {layer=live, op=step}, as a worker's view_step does, and
// the driver puts those labels back after each superstep's own; the
// labels in effect before go back on when it returns.
func (s *session) drive(workset []record.Record) (*iterative.IncrementalResult, error) {
	defer s.label(s.label(roundStep.labels))
	defer func() { disarm(s.step) }()
	return s.core.fx.RunDriven(workset, iterative.DriveHooks{Barrier: shardBarrier{s: s}, OnEpoch: s.epochBump, Labels: roundStep.labels})
}

// warmRestart is drive as maintenance: the run is folded into the view's
// counters.
func (s *session) warmRestart(workset []record.Record) error {
	res, err := s.drive(workset)
	if res != nil {
		if m := s.core.mtr; m != nil {
			m.WarmRestarts.Add(1)
			m.MaintenanceSupersteps.Add(int64(res.Supersteps))
		}
		s.v.stats.WarmRestarts++
		s.v.stats.Supersteps += int64(res.Supersteps)
	}
	return err
}

// Apply absorbs one acknowledged mutation batch: every host applies the
// identical batch to its graph replica, and the resident solution set is
// maintained back to a converged fixpoint before Apply returns. A batch
// that removed something is repaired first (bounded or full recompute);
// then the monotone candidate rounds run: each host derives insert
// candidates from the labels it owns, remote-keyed ones are routed to
// their owners, owners keep those that still improve, and the fixpoint
// absorbs them — repeating over the edge overlay until nothing improves
// anywhere. Candidates only move entries down the CPO, so it terminates.
func (s *session) Apply(batch []Mutation) error {
	c := s.core
	survivors := 0 // records every host keeps past the batch
	err := s.round(roundApply, all(shardMsg{Kind: viewApply, muts: batch}),
		func(host int, reply shardMsg) error {
			if reply.Count != len(c.removed) || reply.Full != c.removes() {
				return fmt.Errorf("saw %d removed edges (any removal %v), coordinator %d (%v) (replica divergence)",
					reply.Count, reply.Full, len(c.removed), c.removes())
			}
			survivors += reply.Records
			return s.sameDigest(host, reply)
		})
	if err != nil {
		return err
	}
	if c.removes() {
		if full, err := s.repair(survivors); err != nil || full {
			return err
		}
	}

	for round := 0; ; round++ {
		// Gather: every host retains the candidates keyed to partitions it
		// owns and reports how many, so a globally empty round is still
		// detectable; only remote-keyed candidates come back, and the
		// coordinator routes each straight to its owner.
		var shares [][]record.Record
		total := 0
		err := s.round(roundGather, all(shardMsg{Kind: viewGather, Round: round}),
			func(_ int, reply shardMsg) error {
				shares = c.splitByHost(shares, reply.recs)
				total += reply.Count + len(reply.recs)
				return nil
			})
		if err != nil || total == 0 {
			return err
		}

		// Seed: each host merges its retained candidates with its routed
		// share and keeps what still improves; nothing anywhere means the
		// solution is already a fixpoint over them.
		var own []record.Record
		improving := 0
		err = s.round(roundSeed, func(h int) shardMsg { return shardMsg{Kind: viewSeed, recs: shares[h]} },
			func(h int, reply shardMsg) error {
				if h == 0 {
					own = reply.recs // host 0 drives its workset; a worker seeded its own (stage)
				}
				improving += reply.Count
				return nil
			})
		if err != nil || improving == 0 {
			return err
		}
		if err := s.warmRestart(own); err != nil {
			return err
		}
		if len(c.overlay) == 0 {
			return nil
		}
	}
}

// recomputeCutoff is the bounded-recompute cutoff: a deletion's region
// larger than this fraction of the records that survive the batch is
// repaired by a full recompute instead.
const recomputeCutoff = 0.5

// repair classifies a batch that removed something and starts its repair.
// Every host holds the same replica and batch, so the coordinator scopes
// the region once, from the graph alone, and ships it with the verdict:
// beyond recomputeCutoff of the records that survive the batch on every
// host (survivors, summed from the view_apply replies) — or whenever the
// maintainer cannot bound it — the session recomputes in full (done when
// repair returns), otherwise every host resets its share of the region and
// the seeds join the candidate rounds.
func (s *session) repair(survivors int) (full bool, err error) {
	c := s.core
	var region []int64
	if len(c.removed) > 0 {
		var ok bool
		region, ok = c.m.DeleteRegion(c.gs, c.cut, c.fresh)
		full = !ok
	}
	if !full && len(region) > 0 {
		full = float64(len(region)) > recomputeCutoff*float64(survivors)
	}
	slices.Sort(region)

	var w0 []record.Record
	err = s.round(roundReplan, all(shardMsg{Kind: viewReplan, Full: full, recs: keyRecords(region)}),
		func(host int, reply shardMsg) error {
			if host == 0 {
				w0 = reply.recs // a full recompute's W0, which host 0 drives (stage)
			}
			return s.sameDigest(host, reply)
		})
	if err == nil && len(w0) > 0 {
		err = s.warmRestart(w0)
	}
	return full, err
}

// keyRecords and recordKeys carry a vertex region over the record codec.
func keyRecords(keys []int64) []record.Record {
	out := make([]record.Record, len(keys))
	for i, k := range keys {
		out[i].A = k
	}
	return out
}

func recordKeys(recs []record.Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.A
	}
	return out
}

// Lookup returns the converged solution record for key k, asking the host
// that owns its partition. A host that cannot answer is an error, never a
// miss.
func (s *session) Lookup(k int64) (record.Record, bool, error) {
	host := s.core.place[s.core.sol.PartitionFor(k)]
	reply, err := s.call(host, shardMsg{Kind: viewQuery, Key: k})
	if err != nil {
		return record.Record{}, false, fmt.Errorf("live: query key %d host %d: %w", k, host, err)
	}
	if len(reply.recs) == 0 {
		return record.Record{}, false, nil
	}
	return reply.recs[0], true, nil
}

// Snapshot copies the converged solution out of EachSolution in
// canonical order.
func (s *session) Snapshot() ([]record.Record, error) {
	out := make([]record.Record, 0, s.core.sol.Size())
	if err := s.EachSolution(func(r record.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out, nil
}

// shards reports every host's occupancy, the coordinator's first. A down
// view asks only host 0, in process: the control connections may be out
// of step. A worker that cannot answer takes the view down.
func (s *session) shards() []ShardStat {
	out := make([]ShardStat, 1+len(s.conns))
	for h := range out {
		out[h].Host = h
		if h == 0 || s.v.down.Load() == nil {
			reply, err := s.call(h, shardMsg{Kind: viewStats})
			if err != nil {
				s.v.fail(fmt.Errorf("live: stats host %d: %w", h, err))
			}
			out[h].Records, out[h].Bytes = reply.Count, reply.Bytes
		}
	}
	return out
}

// EachSolution streams the converged solution, the one collect path of
// the snapshot writer and Snapshot: the coordinator's hosted partitions in
// ascending partition order, then each worker's, collected over the
// session in host order — all of them, or an error; a host lost at collect
// time never yields a short solution. Host 0's stream skips view_collect,
// so a snapshot holds no second copy of its partitions. Worker spans travel
// back with the records on traced views, so the cross-process timeline
// assembles in one ring.
func (s *session) EachSolution(f func(record.Record) error) error {
	var err error
	lost := s.core.eachHosted(func(r record.Record) {
		if err == nil {
			err = f(r)
		}
	})
	if err == nil {
		err = lost
	}
	for i := 0; err == nil && i < len(s.conns); i++ {
		reply, cerr := s.call(i+1, shardMsg{Kind: viewCollect})
		if cerr != nil {
			return fmt.Errorf("live: collect host %d: %w", i+1, cerr)
		}
		for _, sp := range reply.Spans {
			if s.v.ring != nil {
				s.v.ring.RecordSpan(sp)
			}
		}
		for _, r := range reply.recs {
			if err = f(r); err != nil {
				break
			}
		}
	}
	return err
}

// hangUp is the one way a session ends: a view's Close, a failed open and
// a finished job all take it, and a second call finds everything closed.
// It half-closes every control connection — a worker reads EOF, tears its
// core down and closes its end — and waits for those hang-ups, under the
// control deadline, before tearing the local core down, so no worker sees
// this host's data plane drop under a core it still holds, which it would
// count as a transport error.
func (s *session) hangUp() {
	defer s.core.close()
	defer disarm(s.arm())
	for _, c := range s.conns {
		if cw, ok := c.conn.(interface{ CloseWrite() error }); !ok || cw.CloseWrite() != nil {
			c.conn.Close()
		}
	}
	for _, c := range s.conns {
		io.Copy(io.Discard, c.conn)
		c.conn.Close()
	}
}
