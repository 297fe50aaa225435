package live

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
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

// shardConn is one coordinator→worker control connection. Its own lock
// serializes request/response exchanges: concurrent Query calls (shared
// view lock) multiplex safely over the single connection.
type shardConn struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// call performs one locked request/response exchange.
func (c *shardConn) call(msg shardMsg, wantKind string) (shardMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(msg); err != nil {
		return shardMsg{}, err
	}
	return c.decode(wantKind)
}

// send fires a request without awaiting the reply, so every host works on
// it at once; the matching recv must follow under the same external
// ordering.
func (c *shardConn) send(msg shardMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(msg)
}

// recv awaits one reply of the given kind.
func (c *shardConn) recv(wantKind string) (shardMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decode(wantKind)
}

// decode reads one reply, surfacing a view_error reply as an error.
func (c *shardConn) decode(wantKind string) (shardMsg, error) {
	var reply shardMsg
	if err := c.dec.Decode(&reply); err != nil {
		return shardMsg{}, err
	}
	if reply.Kind == viewError {
		return shardMsg{}, fmt.Errorf("live: worker: %s", reply.Err)
	}
	if reply.Kind != wantKind {
		return shardMsg{}, fmt.Errorf("live: worker sent %q, want %q", reply.Kind, wantKind)
	}
	return reply, nil
}

// session is the execution backend of every LiveView: the thing that holds
// the resident fixpoint and absorbs mutation batches into it, while the
// view keeps the micro-batching, the durability lifecycle and the serving
// locks. It is the coordinator's own shardCore (host 0, graph aliased to
// the view's) plus one control connection per worker host 1..H-1 — none
// for a view without ViewConfig.Workers. Maintenance runs the coordinated
// protocol below; reads route by partition placement.
//
// Every method is called under the view's maintenance lock except Lookup
// and Snapshot, which run under the shared read lock and must therefore
// be safe for concurrent use with each other.
type session struct {
	v     *LiveView
	core  *shardCore
	conns []*shardConn // conns[i] is host i+1
	// rtt is the distrib_step_rtt histogram: one sample per barrier round,
	// release to last acknowledgment. Nil — and no clock is read — without
	// workers or a telemetry registry.
	rtt       *obs.Histogram
	stepStart time.Time
}

// openSession builds the view's session over its current graph. Normally
// the cold fixpoint runs before the session is handed out, and its run is
// returned (nil when there was nothing to drive). A recovering session
// opens with an empty solution on every host instead: the caller streams a
// snapshot into it through Load.
func openSession(v *LiveView, recovering bool) (*session, *iterative.IncrementalResult, error) {
	cfg := v.cfg.Config
	cfg.Hosts, cfg.Host = 1+len(v.cfg.Workers), 0
	core, w0, err := newShardCore(v.m, cfg, v.gs, recovering, &v.stats)
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
	dataAddrs := []string{s.core.dataAddr}
	for i, waddr := range v.cfg.Workers {
		conn, err := distrib.DialWorker(waddr, distrib.MeshTimeout)
		if err != nil {
			return fmt.Errorf("live: view %q worker %s: %w", v.name, waddr, err)
		}
		c := &shardConn{conn: conn, dec: json.NewDecoder(conn), enc: json.NewEncoder(conn)}
		s.conns = append(s.conns, c)
		ready, err := c.call(shardMsg{
			Kind: viewOpen, Spec: &spec, HostID: i + 1, Frames: graph.Bytes(), Full: !recovering,
		}, viewReady)
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
	return s.round(roundMesh, all(shardMsg{Kind: viewStart, DataAddrs: dataAddrs}), viewMeshed,
		func() error { return s.core.tr.ConnectPeers(dataAddrs, distrib.MeshTimeout) }, nil)
}

// Load streams one frame of a recovered solution into the session: every
// host keeps a full replica set, so every host absorbs every frame (the
// partitions it hosts become authoritative). Frames arrive one at a time
// from the snapshot reader; nothing accumulates outside the sets.
func (s *session) Load(b record.Batch) error {
	return s.round(roundLoad, all(shardMsg{Kind: viewLoad, Frames: s.wire(b)}), viewLoaded,
		func() error {
			s.core.sol.Init(b)
			return nil
		}, nil)
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
)

// round is one control fan-out: req goes to every worker, local runs on
// the coordinator's core while they work, then every reply of kind want
// is collected through got. With no workers it is just local. The
// coordinator's share runs under the round's profiler labels, which come
// off again afterwards, as the runtime's and the merge's do. A view with
// a telemetry registry records it as a PhaseRound span labelled with the
// round's name.
func (s *session) round(r controlRound, req func(host int) shardMsg, want string,
	local func() error, got func(host int, reply shardMsg) error) error {
	if s.v.ring != nil {
		defer s.v.span(obs.PhaseRound, r.name, time.Now())
	}
	pprof.SetGoroutineLabels(r.labels)
	defer pprof.SetGoroutineLabels(context.Background())
	for i, c := range s.conns {
		if err := c.send(req(i + 1)); err != nil {
			return fmt.Errorf("live: %s host %d: %w", r.name, i+1, err)
		}
	}
	if err := local(); err != nil {
		return err
	}
	for i, c := range s.conns {
		reply, err := c.recv(want)
		if err == nil && got != nil {
			err = got(i+1, reply)
		}
		if err != nil {
			return fmt.Errorf("live: %s host %d: %w", r.name, i+1, err)
		}
	}
	return nil
}

// all sends the same request to every host.
func all(msg shardMsg) func(int) shardMsg { return func(int) shardMsg { return msg } }

// wire packs a fan-out payload — or nothing, with no one to send it to.
func (s *session) wire(recs []record.Record) []byte {
	if len(s.conns) == 0 {
		return nil
	}
	return packRecords(recs)
}

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
// Both directions carry the plan epoch: a host that missed (or imagined) a
// coordinated plan swap is rejected here, before another round executes.
// The coordinator's RunDriven drives it.
type shardBarrier struct{ s *session }

func (b shardBarrier) Release(step int) error {
	s := b.s
	if s.rtt != nil {
		s.stepStart = time.Now()
	}
	for i, c := range s.conns {
		if err := c.send(shardMsg{Kind: viewStep, Epoch: s.core.epoch}); err != nil {
			return fmt.Errorf("live: superstep %d release host %d: %w", step, i+1, err)
		}
	}
	return nil
}

func (b shardBarrier) Collect(step, localNext int) (int, error) {
	s := b.s
	total := localNext
	for i, c := range s.conns {
		reply, err := c.recv(viewStepDone)
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
	err := s.round(roundEpoch, all(shardMsg{Kind: viewEpoch, Epoch: c.epoch + 1, Count: int(est)}), viewEpochDone,
		func() error { return nil }, s.sameDigest)
	if err == nil {
		c.epoch++
	}
	return err
}

// drive runs the coordinator's resident fixpoint from the workset to
// convergence, every worker stepping in lockstep from what it has seeded.
func (s *session) drive(workset []record.Record) (*iterative.IncrementalResult, error) {
	return s.core.fx.RunDriven(workset, iterative.DriveHooks{Barrier: shardBarrier{s: s}, OnEpoch: s.epochBump})
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
	remote := 0 // records the workers' partitions keep past the batch
	err := s.round(roundApply, all(shardMsg{Kind: viewApply, Frames: s.wire(mutationsToRecords(batch))}), viewApplied,
		func() error { return c.applyBatch(batch) },
		func(host int, reply shardMsg) error {
			if reply.Count != len(c.removed) || reply.Full != c.removes() {
				return fmt.Errorf("saw %d removed edges (any removal %v), coordinator %d (%v) (replica divergence)",
					reply.Count, reply.Full, len(c.removed), c.removes())
			}
			remote += reply.Records
			return s.sameDigest(host, reply)
		})
	if err != nil {
		return err
	}
	if c.removes() {
		if full, err := s.repair(remote); err != nil || full {
			return err
		}
	}

	for round := 0; ; round++ {
		// Gather: every host retains the candidates keyed to partitions it
		// owns and reports how many, so a globally empty round is still
		// detectable; only remote-keyed candidates travel, and the
		// coordinator routes each straight to its owner.
		var shares [][]record.Record
		var inbound []record.Record
		total := 0
		err := s.round(roundGather, all(shardMsg{Kind: viewGather, Round: round}), viewCand,
			func() error {
				shares = c.gatherRound(round)
				total += len(c.pending)
				return nil
			},
			func(_ int, reply shardMsg) error {
				recs, err := unpackRecords(reply.Frames)
				inbound = append(inbound, recs...)
				total += reply.Count + len(recs)
				return err
			})
		if err != nil {
			return err
		}
		for _, sh := range shares {
			total += len(sh)
		}
		if total == 0 {
			return nil
		}
		for h, sh := range c.splitByHost(inbound) {
			shares[h] = append(shares[h], sh...)
		}

		// Seed: each host merges its retained candidates with its routed
		// share and keeps what still improves; nothing anywhere means the
		// solution is already a fixpoint over them.
		var own []record.Record
		improving := 0
		err = s.round(roundSeed, func(h int) shardMsg {
			return shardMsg{Kind: viewSeed, Frames: packRecords(shares[h])}
		}, viewSeeded,
			func() error {
				own, improving = c.seedRound(shares[0])
				return nil
			},
			func(_ int, reply shardMsg) error {
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
// beyond recomputeCutoff of the records that survive the batch (remote
// is the workers' share, reported with view_applied) — or whenever the
// maintainer cannot bound it — the session recomputes in full (done when
// repair returns), otherwise every host resets its share of the region and
// the seeds join the candidate rounds.
func (s *session) repair(remote int) (full bool, err error) {
	c := s.core
	var region []int64
	if len(c.removed) > 0 {
		var ok bool
		region, ok = c.m.DeleteRegion(c.gs, c.cut, c.fresh)
		full = !ok
	}
	if !full && len(region) > 0 {
		full = float64(len(region)) > recomputeCutoff*float64(remote+c.survivors())
	}
	slices.Sort(region)

	var w0 []record.Record
	err = s.round(roundReplan, all(shardMsg{Kind: viewReplan, Full: full, Frames: s.wire(keyRecords(region))}), viewReplanned,
		func() (err error) {
			w0, err = c.settle(full, region)
			return err
		}, s.sameDigest)
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
	if host == 0 {
		r, ok := s.core.lookup(k)
		return r, ok, nil
	}
	reply, err := s.conns[host-1].call(shardMsg{Kind: viewQuery, Key: k}, viewValue)
	var recs []record.Record
	if err == nil {
		recs, err = unpackRecords(reply.Frames)
	}
	if err != nil {
		return record.Record{}, false, fmt.Errorf("live: query key %d host %d: %w", k, host, err)
	}
	if len(recs) == 0 {
		return record.Record{}, false, nil
	}
	return recs[0], true, nil
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

// foldSpans records worker-shipped spans into the view's ring.
func (s *session) foldSpans(reply shardMsg) {
	if s.v.ring == nil {
		return
	}
	for _, sp := range reply.Spans {
		s.v.ring.RecordSpan(sp)
	}
}

// shards reports every host's occupancy, the coordinator's first.
func (s *session) shards() []ShardStat {
	out := []ShardStat{{Host: 0, Records: s.core.hostedRecords(), Bytes: s.core.sol.Bytes()}}
	for i, c := range s.conns {
		st := ShardStat{Host: i + 1}
		if reply, err := c.call(shardMsg{Kind: viewStats}, viewStatted); err == nil {
			st.Records = reply.Count
			st.Bytes = reply.Bytes
		}
		out = append(out, st)
	}
	return out
}

// EachSolution streams the converged solution, the one collect path of
// the snapshot writer and Snapshot: the coordinator's hosted partitions in
// ascending partition order, then each worker's, collected over the
// session in host order — all of them, or an error; a host lost at collect
// time never yields a short solution. Worker spans travel back with the
// records on traced views, so the cross-process timeline assembles in one
// ring.
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
		var recs []record.Record
		reply, cerr := s.conns[i].call(shardMsg{Kind: viewCollect}, viewSolution)
		if cerr == nil {
			s.foldSpans(reply)
			recs, cerr = unpackRecords(reply.Frames)
		}
		if cerr != nil {
			return fmt.Errorf("live: collect host %d: %w", i+1, cerr)
		}
		for _, r := range recs {
			if err = f(r); err != nil {
				break
			}
		}
	}
	return err
}

// hangUpGrace bounds how long hangUp waits for the workers to hang up in
// turn; a worker that does not is cut off.
const hangUpGrace = 5 * time.Second

// hangUp is the one way a session ends: a view's Close, a failed open and
// a finished job all take it. It half-closes every control connection —
// a worker reads EOF, tears its core down and closes its end — and waits
// for those hang-ups before tearing the local core down, so no worker sees
// this host's data plane drop under a core it still holds, which it would
// count as a transport error.
func (s *session) hangUp() {
	deadline := time.Now().Add(hangUpGrace)
	for _, c := range s.conns {
		if cw, ok := c.conn.(interface{ CloseWrite() error }); !ok || cw.CloseWrite() != nil {
			c.conn.Close()
		}
	}
	for _, c := range s.conns {
		c.conn.SetReadDeadline(deadline)
		io.Copy(io.Discard, c.conn)
		c.conn.Close()
	}
	s.core.close()
}
