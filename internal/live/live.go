// Package live is the serving side of incremental iterations: it keeps
// converged fixpoints *resident* and maintains them under streaming graph
// mutations.
//
// The paper's incremental iteration (Δ, S0, W0) converges to a solution
// set S with an empty working set. That pair (S, ∅) is exactly the state
// of a still-running job — so absorbing new input does not require
// recomputation, only a small working-set delta and a warm restart of the
// same fixpoint loop. A LiveView packages this: it holds the converged
// runtime.SolutionSet (in memory, or spilled under a memory budget), a
// persistent partition-pinned execution session
// (iterative.Fixpoint), and the mutable graph, and translates streamed
// mutations into workset deltas:
//
//   - edge/vertex insertions take the monotone fast path: each endpoint
//     proposes its current state to the other, and the fixpoint re-runs
//     over just those candidates (typically 1–3 supersteps);
//   - deletions are not monotone, so the view repairs by bounded
//     recompute: the maintainer names the affected region (for Connected
//     Components, the component containing the deleted edge), the region's
//     entries are force-reset, and the fixpoint re-runs over the region
//     only — falling back to a full recompute as a last resort (SSSP
//     deletions, or regions larger than half the solution set);
//   - mutations are micro-batched: they buffer until ViewConfig.BatchSize
//     accumulate or ViewConfig.FlushInterval elapses, and one flush
//     absorbs the whole batch in a single warm restart.
//
// Reads (Query, Snapshot) take a shared lock and see converged state only;
// maintenance is serialized per view. The Scheduler serves many named
// views concurrently under a global memory budget, and serve.go exposes
// the whole service over HTTP for `spinflow serve`.
//
// Views can be durable (wal.go, ViewConfig.Durable): acknowledged
// mutation batches are write-ahead logged (CRC32-framed, fsynced before
// Mutate returns), the resident state is periodically captured by
// streaming snapshots written partition-by-partition in the section
// format (checkpoint.go), and OpenView recovers a crashed view by
// loading the latest valid snapshot, replaying the log tail through the
// ordinary maintenance path, and truncating torn tails at the last valid
// frame. Stopping is such a crash: Close writes nothing, so the one way
// back up is that recovery. `spinflow serve -data-dir` turns this on for
// every served view.
//
// Every view reaches its fixpoint through one maintenance session
// (shard.go, shardcore.go) spread over 1+len(ViewConfig.Workers) hosts:
// in-process with none, or — with `spinflow serve -workers` — hosting
// partition ranges across `spinflow worker` processes. The host count
// changes the transport and the control fan-out, never the maintenance
// decision: insert fast path, bounded recompute, full recompute and
// overlay fold — a patch of the cached edge table with the net edge
// changes since the last fold — are taken on the same conditions
// everywhere. Every host
// keeps a full graph replica and derives plan and placement independently
// (digest-checked over the control connections); only mutation batches,
// owner-routed candidate worksets and the affected regions of deletions
// travel, supersteps ride the shared driver's barrier over the TCP data
// plane, queries ask the key's owner, and a snapshot gathers every host's
// shard into one file. A distributed batch job
// (job.go, RunJob) is the same session opened, driven through its cold
// fixpoint once, collected and hung up — there is no second protocol.
package live

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

// Op enumerates streaming graph mutations.
type Op int

// The mutation kinds.
const (
	// OpInsertEdge adds (or re-weights) the directed edge Src->Dst; views
	// interpret edges as undirected, matching the paper's §6.2.
	OpInsertEdge Op = iota
	// OpDeleteEdge removes the edge Src->Dst.
	OpDeleteEdge
	// OpAddVertex adds the isolated vertex Src.
	OpAddVertex
	// OpDeleteVertex removes vertex Src and every incident edge.
	OpDeleteVertex
)

// String names the op (also the HTTP wire form).
func (o Op) String() string {
	switch o {
	case OpInsertEdge:
		return "insert-edge"
	case OpDeleteEdge:
		return "delete-edge"
	case OpAddVertex:
		return "add-vertex"
	case OpDeleteVertex:
		return "delete-vertex"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mutation is one streamed graph change.
type Mutation struct {
	Op       Op
	Src, Dst int64
	Weight   float64
}

// Convenience constructors.

// InsertEdge inserts an unweighted edge.
func InsertEdge(src, dst int64) Mutation { return Mutation{Op: OpInsertEdge, Src: src, Dst: dst} }

// InsertWeightedEdge inserts a weighted edge (SSSP views).
func InsertWeightedEdge(src, dst int64, w float64) Mutation {
	return Mutation{Op: OpInsertEdge, Src: src, Dst: dst, Weight: w}
}

// DeleteEdge removes an edge.
func DeleteEdge(src, dst int64) Mutation { return Mutation{Op: OpDeleteEdge, Src: src, Dst: dst} }

// ViewConfig configures one live view. The embedded iterative.Config
// selects parallelism, metrics, and the solution-set memory budget
// (SolutionMemoryBudget, for out-of-core views). The bounded-recompute
// cutoff is fixed (recomputeCutoff, half the solution set).
type ViewConfig struct {
	iterative.Config
	// BatchSize is the number of buffered mutations that triggers an
	// automatic flush (default 256).
	BatchSize int
	// FlushInterval bounds the staleness of buffered mutations: a
	// non-zero interval flushes the batch that long after its first
	// mutation arrives. Zero means flushes happen only when BatchSize is
	// reached or Flush is called.
	FlushInterval time.Duration
	// Durable enables the write-ahead log and snapshot lifecycle: every
	// Mutate appends its batch to the view's log (fsynced) before
	// returning, periodic streaming snapshots bound the log, and OpenView
	// recovers the view after a crash. Requires DataDir.
	Durable bool
	// DataDir is the directory durable view state lives under (one
	// subdirectory per view: wal.log plus snapshot files).
	DataDir string
	// Workers shards the view across distributed maintenance sessions:
	// each entry is the control address of an already-listening `spinflow
	// worker` process. The view's partition ranges are placed over
	// 1+len(Workers) hosts (this process is host 0) and every flush is
	// coordinated across the mesh. Empty means in-process maintenance.
	Workers []string
	// fs is the file system durable state lives on; nil means the
	// operating system's. Only this package's tests set it.
	fs fsys
}

func (c ViewConfig) normalized() ViewConfig {
	// A view needs at least one partition per host (this process is one),
	// or trailing hosts would sit in the mesh owning nothing.
	if hosts := 1 + len(c.Workers); c.Parallelism < hosts {
		c.Parallelism = hosts
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.fs == nil {
		c.fs = osFS{}
	}
	return c
}

// Validate rejects configurations that cannot serve: negative knobs that
// the zero-value defaults would otherwise silently paper over.
func (c ViewConfig) Validate() error {
	if c.BatchSize < 0 {
		return fmt.Errorf("live: negative BatchSize %d", c.BatchSize)
	}
	if c.FlushInterval < 0 {
		return fmt.Errorf("live: negative FlushInterval %v", c.FlushInterval)
	}
	if c.SolutionMemoryBudget < 0 {
		return fmt.Errorf("live: negative SolutionMemoryBudget %d", c.SolutionMemoryBudget)
	}
	if c.Durable && c.DataDir == "" {
		return fmt.Errorf("live: Durable requires DataDir")
	}
	return nil
}

// ViewStats reports one view's lifetime maintenance counters.
type ViewStats struct {
	Vertices, Edges   int
	SolutionRecords   int
	SolutionBytes     int64
	MutationsPending  int
	DeltasApplied     int64
	Flushes           int64
	WarmRestarts      int64
	PartialRecomputes int64
	FullRecomputes    int64
	Supersteps        int64
	Rebinds           int64
	// Folds counts folds of the edge overlay into the plan's cached edge
	// table (patch, refill or re-plan); CandidateEdges counts the overlay
	// edges the candidate rounds past the first re-examined.
	Folds          int64
	CandidateEdges int64
	// Durable reports whether the view logs mutations and snapshots.
	Durable bool
	// WALBytes is the current size of the view's write-ahead log.
	WALBytes int64
	// SnapshotsWritten counts streaming snapshots this view persisted.
	SnapshotsWritten int64
	// RecoveredFrames counts WAL frames replayed through the maintenance
	// path when this view instance was recovered (0 for fresh views).
	RecoveredFrames int64
	// Shards reports the per-host solution split of a sharded view (nil
	// for in-process views).
	Shards []ShardStat
	// LastError is the most recent failure with no caller to return to: a
	// timer flush, a snapshot, or a read whose owning host did not answer.
	LastError string
}

// LiveView is one maintained fixpoint: a resident solution set plus the
// machinery to absorb streaming graph mutations into it. Mutate/Flush
// are safe for concurrent use; maintenance itself is serialized, and
// Query/Snapshot run concurrently with each other against converged
// state.
type LiveView struct {
	name string
	m    Maintainer
	cfg  ViewConfig

	// Telemetry, bound once at construction when cfg.Obs is set (see
	// bindObs): the registry's span ring plus the serving-layer latency
	// histograms. All nil without a registry — the instrumented paths
	// (Query, Mutate, Flush, snapshot) each pay one nil check.
	ring      *obs.Ring
	qHist     *obs.Histogram
	mutHist   *obs.Histogram
	flushHist *obs.Histogram
	walHist   *obs.Histogram
	snapHist  *obs.Histogram

	// mu guards the graph, the session and its solution state: exclusive
	// for maintenance, shared for reads.
	mu sync.RWMutex
	gs *GraphState
	// sess holds the resident fixpoint, spread over this process and
	// ViewConfig.Workers.
	sess  *session
	stats ViewStats
	// dur is the durability state (nil for in-memory views). Its wal is
	// internally locked; the seq/snapshot bookkeeping is guarded by mu,
	// except that Mutate reads the wal's seq under pmu.
	dur *durableState

	// pmu guards the pending micro-batch.
	pmu     sync.Mutex
	pending []Mutation
	timer   *time.Timer

	closed atomic.Bool
	// asyncErr records the last failure that had no caller to return to,
	// surfaced through ViewStats.LastError.
	asyncErr atomic.Value // string
}

// A durable view takes a streaming snapshot every snapshotEveryFlushes
// flushed micro-batches, or earlier once its log has grown
// snapshotEveryBytes since the last one.
const (
	snapshotEveryFlushes = 32
	snapshotEveryBytes   = 4 << 20
)

// durableState is the write-ahead log plus snapshot bookkeeping of one
// durable view.
type durableState struct {
	dir string
	wal *wal
	// flushedSeq is the WAL frame up to which mutations are reflected in
	// the resident solution set (guarded by the maintenance lock).
	flushedSeq uint64
	// flushesSinceSnap and walBytesAtSnap drive the snapshot cadence.
	flushesSinceSnap int
	walBytesAtSnap   int64
	// snapshots counts snapshots written by this view instance.
	snapshots int64
	// replayed counts WAL frames replayed when this instance recovered.
	replayed int64
}

// NewView builds a view over the graph described by the initial mutations
// (typically a stream of InsertEdge), runs the cold fixpoint once, and
// leaves everything resident for maintenance. With ViewConfig.Durable set
// it is OpenView — which *recovers* existing on-disk state for the name
// instead of building from `initial`.
func NewView(name string, m Maintainer, initial []Mutation, cfg ViewConfig) (*LiveView, error) {
	return OpenView(name, m, initial, cfg)
}

// newViewCore is the cold build shared by NewView and the durable create
// path: graph from initial mutations, one cold fixpoint, everything left
// resident. cfg has been validated and normalized.
func newViewCore(name string, m Maintainer, initial []Mutation, cfg ViewConfig) (*LiveView, error) {
	gs := NewGraphState()
	for _, mut := range initial {
		gs.Apply(mut)
	}
	return assembleView(name, m, cfg, gs, false)
}

// assembleView wires a LiveView and its session around a graph. A
// recovering view skips the cold fixpoint: its session opens empty and the
// snapshot loader streams the solution in (wal.go).
func assembleView(name string, m Maintainer, cfg ViewConfig, gs *GraphState, recovering bool) (*LiveView, error) {
	v := &LiveView{name: name, m: m, cfg: cfg, gs: gs}
	v.bindObs()
	sess, _, err := openSession(v, recovering)
	if err != nil {
		return nil, err
	}
	v.sess = sess
	return v, nil
}

// withObsDefaults mints the view's trace identity when a telemetry
// registry is attached: a fresh trace ID groups every span this view
// instance records (flushes, supersteps, snapshots) and the view's name
// labels them. An explicitly-set TraceID/TraceLabel is kept.
func (c ViewConfig) withObsDefaults(name string) ViewConfig {
	if c.Obs != nil {
		if c.TraceID == 0 {
			c.TraceID = obs.NewTraceID()
		}
		if c.TraceLabel == "" {
			c.TraceLabel = name
		}
	}
	return c
}

// bindObs caches the registry's ring and the serving-layer histograms on
// the view, so the hot paths don't take the registry lock per call.
func (v *LiveView) bindObs() {
	r := v.cfg.Obs
	if r == nil {
		return
	}
	v.ring = r.Trace()
	v.qHist = r.Histogram("live_query_duration")
	v.mutHist = r.Histogram("live_mutate_duration")
	v.flushHist = r.Histogram("live_flush_duration")
	v.walHist = r.Histogram("wal_append_duration")
	v.snapHist = r.Histogram("snapshot_duration")
}

// span records one serving-layer phase span: flush, wal-append and
// snapshot under the view's name, a flush round under its verb. Caller has
// checked v.ring != nil.
func (v *LiveView) span(ph obs.Phase, label string, start time.Time) {
	v.ring.RecordSpan(obs.Span{
		Trace: v.cfg.TraceID, Host: int32(v.cfg.Host), Part: -1, Step: -1,
		Phase: ph, Start: start.UnixNano(), Dur: int64(time.Since(start)),
		Label: label,
	})
}

// TraceID returns the trace ID this view's spans record under (zero when
// the view was built without a telemetry registry).
func (v *LiveView) TraceID() obs.TraceID { return v.cfg.TraceID }

// Query returns the solution record for key k (e.g. a vertex's component
// id or distance). It sees converged state only: flushes in progress
// block it, queued-but-unflushed mutations do not affect it. On a
// sharded view the lookup is routed to the host owning the key's
// partition; when that host cannot answer, the key reads as not found and
// the failure surfaces through ViewStats.LastError.
func (v *LiveView) Query(k int64) (record.Record, bool) {
	if h := v.qHist; h != nil {
		defer h.ObserveSince(time.Now())
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	r, ok, err := v.sess.Lookup(k)
	if err != nil {
		v.asyncErr.Store(err.Error())
	}
	return r, ok
}

// Snapshot copies the converged solution set out (scatter-gathered over
// every host for a sharded view). When a host cannot be collected it
// returns nothing rather than a partial set, and the failure surfaces
// through ViewStats.LastError.
func (v *LiveView) Snapshot() []record.Record {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out, err := v.sess.Snapshot()
	if err != nil {
		v.asyncErr.Store(err.Error())
	}
	return out
}

// Bytes reports the solution set's resident in-memory footprint, summed
// over every host.
func (v *LiveView) Bytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var b int64
	for _, sh := range v.sess.shards() {
		b += sh.Bytes
	}
	return b
}

// Stats reports the view's maintenance counters.
func (v *LiveView) Stats() ViewStats {
	v.mu.RLock()
	st := v.stats
	st.Vertices = v.gs.NumVertices()
	st.Edges = v.gs.NumEdges()
	shards := v.sess.shards()
	for _, sh := range shards {
		st.SolutionRecords += sh.Records
		st.SolutionBytes += sh.Bytes
	}
	if len(shards) > 1 {
		st.Shards = shards
	}
	if d := v.dur; d != nil {
		st.Durable = true
		st.WALBytes = d.wal.SizeBytes()
		st.SnapshotsWritten = d.snapshots
		st.RecoveredFrames = d.replayed
	}
	v.mu.RUnlock()
	v.pmu.Lock()
	st.MutationsPending = len(v.pending)
	v.pmu.Unlock()
	if e, ok := v.asyncErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// Mutate queues mutations into the current micro-batch, flushing it when
// it reaches ViewConfig.BatchSize (and arming the FlushInterval timer on
// the batch's first mutation). The closed check happens under the batch
// lock, so a mutation Close has refused is never acknowledged.
//
// Durable views write the batch to the write-ahead log (one CRC32 frame,
// fsynced) before it is queued: by the time Mutate returns nil, the
// mutations are in the log, and survive a crash and a Close alike. A
// failed log append rejects the batch — it is neither queued nor
// acknowledged. An in-memory view's accepted mutations are applied by a
// later flush, or go with the view when it closes first.
func (v *LiveView) Mutate(muts ...Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	if h := v.mutHist; h != nil {
		defer h.ObserveSince(time.Now())
	}
	v.pmu.Lock()
	if v.closed.Load() {
		v.pmu.Unlock()
		return fmt.Errorf("live: view %q is closed", v.name)
	}
	if v.dur != nil {
		walStart := time.Now()
		pprof.SetGoroutineLabels(walAppendLabels)
		_, n, err := v.dur.wal.Append(mutationsToRecords(muts))
		pprof.SetGoroutineLabels(context.Background())
		if err != nil {
			v.pmu.Unlock()
			return fmt.Errorf("live: view %q wal append: %w", v.name, err)
		}
		if m := v.cfg.Metrics; m != nil {
			m.WALAppends.Add(1)
			m.WALBytes.Add(int64(n))
		}
		if v.ring != nil {
			v.walHist.ObserveSince(walStart)
			v.span(obs.PhaseWALAppend, v.name, walStart)
		}
	}
	wasEmpty := len(v.pending) == 0
	v.pending = append(v.pending, muts...)
	n := len(v.pending)
	if wasEmpty && n > 0 && v.cfg.FlushInterval > 0 && v.timer == nil {
		v.timer = time.AfterFunc(v.cfg.FlushInterval, func() {
			if err := v.Flush(); err != nil {
				// Background flushes have no caller to return to; record
				// the failure so Stats exposes it.
				v.asyncErr.Store(err.Error())
			}
		})
	}
	v.pmu.Unlock()
	if n >= v.cfg.BatchSize {
		return v.Flush()
	}
	return nil
}

// takeBatch drains the pending micro-batch and disarms the timer. For
// durable views it also captures the WAL seq the drain corresponds to:
// the drained mutations are exactly the log frames up to that seq that
// are not yet flushed, so applying them advances flushedSeq there.
func (v *LiveView) takeBatch() ([]Mutation, uint64) {
	v.pmu.Lock()
	batch := v.pending
	v.pending = nil
	var seq uint64
	if v.dur != nil {
		seq = v.dur.wal.Seq()
	}
	if v.timer != nil {
		v.timer.Stop()
		v.timer = nil
	}
	v.pmu.Unlock()
	return batch, seq
}

// Flush applies the pending micro-batch now: mutations become workset
// deltas and one warm restart absorbs them. It is a no-op when nothing is
// pending. The batch is taken only after the maintenance lock is held and
// the view is known to be open, so a Flush racing Close either completes
// fully or leaves the batch for Close to drop.
func (v *LiveView) Flush() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed.Load() {
		return fmt.Errorf("live: view %q is closed", v.name)
	}
	batch, seq := v.takeBatch()
	if len(batch) == 0 {
		return nil
	}
	flushStart := time.Now()
	if err := v.applyLocked(batch); err != nil {
		return err
	}
	if v.ring != nil {
		v.flushHist.ObserveSince(flushStart)
		v.span(obs.PhaseFlush, v.name, flushStart)
	}
	v.afterFlushLocked(seq)
	return nil
}

// afterFlushLocked advances the durable bookkeeping after a successful
// flush and writes a snapshot when the cadence (flush count or log
// growth) says so. Snapshot failures do not fail the flush — the WAL
// already holds the mutations durably — but surface through
// ViewStats.LastError.
func (v *LiveView) afterFlushLocked(seq uint64) {
	d := v.dur
	if d == nil {
		return
	}
	d.flushedSeq = seq
	d.flushesSinceSnap++
	if d.flushesSinceSnap >= snapshotEveryFlushes ||
		d.wal.SizeBytes()-d.walBytesAtSnap >= snapshotEveryBytes {
		if err := v.snapshotLocked(); err != nil {
			v.asyncErr.Store(err.Error())
		}
	}
}

// applyLocked absorbs one mutation batch under the exclusive lock: the
// session does the maintenance work (graph apply, delta classification,
// warm restart), this wrapper keeps the view-level counters. The batch
// counts as applied once the graph mutation phase ran, which the session
// performs unconditionally before any restart.
func (v *LiveView) applyLocked(batch []Mutation) error {
	if m := v.cfg.Metrics; m != nil {
		m.DeltasApplied.Add(int64(len(batch)))
	}
	v.stats.DeltasApplied += int64(len(batch))
	v.stats.Flushes++
	return v.sess.Apply(batch)
}

// Close tears the view down the way a crash would, and the next OpenView
// recovers from it: later calls are refused, the flush timer stops, the
// pending micro-batch is dropped, the log closes and the session hangs up,
// releasing the solution set (spill files included). Nothing is flushed,
// snapshotted or rotated. A durable view's pending batch is already in the
// log, which the next OpenView or Scheduler.Recover replays; an in-memory
// view's goes with the view, which nothing can read after Close.
// Idempotent.
func (v *LiveView) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.closed.CompareAndSwap(false, true) {
		return nil
	}
	v.takeBatch()
	var err error
	if d := v.dur; d != nil {
		err = d.wal.Close()
	}
	v.sess.hangUp()
	return err
}

// Kill is Close for callers with no error to report.
func (v *LiveView) Kill() { v.Close() }

// Checkpoint forces a streaming snapshot of the current converged state
// now, regardless of the snapshot cadence, and rotates the log when
// possible. Pending (acknowledged but unflushed) mutations stay in the
// WAL and are not flushed by this call.
func (v *LiveView) Checkpoint() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed.Load() {
		return fmt.Errorf("live: view %q is closed", v.name)
	}
	if v.dur == nil {
		return fmt.Errorf("live: view %q is not durable", v.name)
	}
	return v.snapshotLocked()
}
