package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Session is a persistent, partition-pinned execution context for one
// physical plan. Opening a session spawns one long-lived worker goroutine
// per (node, partition); each Run call is one superstep that reuses those
// workers, the per-edge exchanges, and the pooled record batches, so the
// steady-state passes of an iteration pay no plan-setup cost (§4.2). A
// superstep whose input is small runs its tasks inline (see serialLane).
//
// A session is not safe for concurrent Run calls. Close releases the
// workers; the executor (and its caches) remains usable, so a driver can
// open a new session on a re-optimized plan mid-iteration.
type Session struct {
	e    *Executor
	plan *optimizer.PhysPlan
	par  int
	pool *batchPool

	// tr ships batches for partitions this process does not host; nil for
	// the default in-memory transport (every partition hosted). hosted is
	// nil when tr is nil, which keeps the single-process paths
	// branch-free; hostedParts lists the hosted partitions either way.
	tr          Transport
	hosted      []bool
	hostedParts []int

	workers []*worker // one per (node, partition), parked between supersteps
	tasks   []*task   // parallel to workers; wiring mutated on recompile
	// running lists, in workers order, the workers whose task does work in
	// the current schedule: the only ones a superstep runs or wakes.
	running []*worker

	// exchanges is keyed by the plan's stable Edge.ID; entries are
	// allocated on first need and reset — not rebuilt — afterwards.
	exchanges []*exchange
	active    []*exchange // exchanges the current schedule uses

	// The schedule's edges with no exchange (see borrowed): the borrowed
	// streams and the writers into a sink.
	borrows     []*borrowStream
	sinkWriters []*writer

	// The schedule the tasks are wired for, as reusable node- and
	// edge-indexed bitmaps (node IDs and edge IDs are dense). The
	// schedule changes when caches fill (a constant subtree drops out,
	// or a still-live producer stops feeding a cache-satisfied edge) or
	// when the executor's cache generation moves (caches dropped).
	liveNow, livePrev []bool // by PhysNode.ID: node is in this superstep
	edgeNow, edgePrev []bool // by Edge.ID: edge carries an exchange
	genPrev           uint64
	compiled          bool

	cur    Result // sink collection target of the in-flight superstep
	closed bool

	// step is the superstep index stamped on this Run's spans. Mutated only
	// between supersteps (workers are parked), so workers read it
	// race-free while recording operator spans.
	step int32
}

// worker executes one (node, partition) task each superstep its task runs.
// All running workers of a superstep run concurrently, so exchanges
// pipeline without deadlock; between supersteps they park on a channel.
type worker struct {
	t      *task
	labels context.Context // t's profiler labels on the parallel lane
	// lane is the profiler labels t runs under this superstep: labels on
	// the parallel lane, t.labels on the serial one. t's writers restore
	// it after a transport call.
	lane context.Context
	fire chan *superstep
}

// superstep is the per-Run rendezvous between the session and its workers.
type superstep struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (st *superstep) addErr(err error) {
	st.mu.Lock()
	st.errs = append(st.errs, err)
	st.mu.Unlock()
}

// OpenSession creates a persistent execution context for plan p, spawning
// its partition-pinned workers. The caller must Close it; iteration
// drivers keep one session for the whole iteration and run every
// superstep through it.
func (e *Executor) OpenSession(p *optimizer.PhysPlan) *Session {
	return e.OpenSessionOn(p, nil)
}

// OpenSessionOn opens a session that hosts only the partitions the
// transport places in this process; batches for the others are shipped
// through tr. A nil transport hosts everything in-process (the default).
// The plan's logical parallelism is unchanged — only the (node, partition)
// workers of hosted partitions are spawned here, so N processes opened on
// the same plan with complementary placements together form one logical
// session.
func (e *Executor) OpenSessionOn(p *optimizer.PhysPlan, tr Transport) *Session {
	par := max(p.Parallelism, 1)
	s := &Session{
		e: e, plan: p, par: par, tr: tr,
		pool:      newBatchPool(exchangeBatch, e.cfg.Metrics),
		exchanges: make([]*exchange, p.NumEdges),
		liveNow:   make([]bool, len(p.Nodes)),
		livePrev:  make([]bool, len(p.Nodes)),
		edgeNow:   make([]bool, p.NumEdges),
		edgePrev:  make([]bool, p.NumEdges),
	}
	if tr != nil {
		s.hosted = make([]bool, par)
	}
	for part := range par {
		if tr == nil || tr.Hosted(part) {
			s.hostedParts = append(s.hostedParts, part)
			if tr != nil {
				s.hosted[part] = true
			}
		}
	}
	for _, n := range p.Nodes {
		serial, parallel := runtimeLabels(n.Name(), "serial"), runtimeLabels(n.Name(), "parallel")
		for part := 0; part < par; part++ {
			if s.hosted != nil && !s.hosted[part] {
				continue
			}
			t := &task{e: e, sess: s, n: n, part: part, par: par, m: e.cfg.Metrics, labels: serial}
			w := &worker{t: t, labels: parallel, fire: make(chan *superstep, 1)}
			s.tasks = append(s.tasks, t)
			s.workers = append(s.workers, w)
			go w.loop()
		}
	}
	if m := e.cfg.Metrics; m != nil {
		m.WorkersSpawned.Add(int64(len(s.workers)))
	}
	return s
}

// loop is the worker goroutine. It runs one task only, under that task's
// parallel-lane profiler labels; a worker never fired carries none.
func (w *worker) loop() {
	for step := range w.fire {
		pprof.SetGoroutineLabels(w.labels)
		w.lane = w.labels
		if err := execTask(w.t); err != nil {
			step.addErr(err)
		}
		step.wg.Done()
	}
}

// execTask runs one task and, when the run is traced, records its operator
// span. Both lanes execute tasks through it, so a traced run emits the same
// span per (node, partition, step) whichever lane a superstep took.
func execTask(t *task) error {
	sink := t.e.cfg.Trace
	if sink == nil {
		return runTask(t)
	}
	t0 := time.Now()
	err := runTask(t)
	cfg := &t.e.cfg
	sink.RecordSpan(obs.Span{
		Trace: cfg.TraceID,
		Host:  int32(cfg.Host),
		Part:  int32(t.part),
		Step:  t.sess.step,
		Phase: obs.PhaseOperator,
		Start: t0.UnixNano(),
		Dur:   int64(time.Since(t0)),
		Label: t.n.Name(),
	})
	return err
}

// runTask executes one task, converting panics into errors and always
// flushing/closing the task's output writers so downstream consumers in
// other partitions cannot block on a stream that will never end.
func runTask(t *task) (err error) {
	defer func() {
		for _, w := range t.outs {
			w.done()
		}
		t.flushCounters()
		if r := recover(); r != nil {
			err = fmt.Errorf("runtime: task %s[%d] panicked: %v", t.n.Name(), t.part, r)
		}
	}()
	if rerr := t.run(); rerr != nil {
		err = fmt.Errorf("runtime: task %s[%d]: %w", t.n.Name(), t.part, rerr)
	}
	return err
}

// shipMeter is implemented by transports that time their outbound sends
// (TCPTransport); sessions read the accumulator's delta per superstep to
// attribute ship time to the step's span.
type shipMeter interface {
	ShipNanos() int64
}

// SetTraceStep sets the superstep index stamped on the next Run's spans.
// Iteration drivers that reopen a session mid-run (re-optimization) call
// it so the trace's step numbering stays continuous; without it each
// session's spans count from 0.
func (s *Session) SetTraceStep(step int) { s.step = int32(step) }

// Run executes one superstep of the plan and returns the sink outputs.
// Sink output slices are freshly allocated and owned by the caller; all
// internal transport state is recycled for the next Run. labels is the
// calling goroutine's profiler-label context (context.Background() when
// it has none): a superstep on the serial lane runs its tasks on the
// caller's goroutine under their own labels, and restores these after.
func (s *Session) Run(labels context.Context) (Result, error) {
	if s.closed {
		return nil, errors.New("runtime: Run on a closed session")
	}
	tsink := s.e.cfg.Trace
	var start time.Time
	var ship0 int64
	meter, _ := s.tr.(shipMeter)
	if tsink != nil {
		start = time.Now()
		if meter != nil {
			ship0 = meter.ShipNanos()
		}
	}
	s.compile()

	results := make(Result, len(s.plan.Sinks))
	for _, sink := range s.plan.Sinks {
		results[sink.Logical.ID] = make([][]record.Record, s.par)
	}
	s.cur = results
	for _, w := range s.sinkWriters { // the caller keeps the last res
		w.res = slices.Grow(w.res, w.hint)
	}

	var errs []error
	if s.serialLane() {
		// Topological order over unbounded queues: every consumer finds its
		// producers finished and its queues closed, so nothing blocks. Each
		// task runs under its serial-lane profiler labels on the caller's
		// goroutine, whose own labels come back afterwards.
		for _, w := range s.running {
			w.lane = w.t.labels
			pprof.SetGoroutineLabels(w.t.labels)
			if err := execTask(w.t); err != nil {
				errs = append(errs, err)
			}
		}
		pprof.SetGoroutineLabels(labels)
	} else {
		step := &superstep{}
		step.wg.Add(len(s.running))
		for _, w := range s.running {
			w.fire <- step
		}
		step.wg.Wait()
		errs = step.errs
	}
	s.cur = nil
	for _, w := range s.sinkWriters {
		results[w.sink][w.ownPart] = w.res
		w.hint, w.res = len(w.res), nil
	}
	if s.tr != nil {
		// Detach the exchanges before returning: a peer racing into the
		// next superstep must park its traffic in the transport, not push
		// into queues about to be reset. Transport failures surface here —
		// the failure path force-closed the queues, so the wait above
		// cannot hang on a dead peer's missing producers.
		s.tr.disarmAll()
		if err := s.tr.Err(); err != nil {
			return nil, err
		}
	}
	if tsink != nil {
		cfg := &s.e.cfg
		now := time.Now()
		tsink.RecordSpan(obs.Span{
			Trace: cfg.TraceID, Host: int32(cfg.Host), Part: -1, Step: s.step,
			Phase: obs.PhaseSuperstep, Start: start.UnixNano(),
			Dur: int64(now.Sub(start)), Label: cfg.TraceLabel,
		})
		if meter != nil {
			if d := meter.ShipNanos() - ship0; d > 0 {
				tsink.RecordSpan(obs.Span{
					Trace: cfg.TraceID, Host: int32(cfg.Host), Part: -1, Step: s.step,
					Phase: obs.PhaseShip, Start: start.UnixNano(), Dur: d,
					Label: cfg.TraceLabel,
				})
			}
		}
		s.step++
	}
	if len(errs) > 0 {
		return nil, errs[0] // first error wins; all tasks already finished
	}
	return results, nil
}

// serialLaneRecords is the superstep input size below which running the
// tasks inline beats waking the workers. BenchmarkSuperstepLanes measures
// the crossover; see CHANGES.md (PR 16) for the runs behind this value.
const serialLaneRecords = 1024

// laneOverride replaces the size rule; only tests set it (export_test.go).
var laneOverride func() (serial bool)

// serialLane picks the lane for the superstep compile just scheduled, by
// the rule in the package doc.
func (s *Session) serialLane() bool {
	if s.tr != nil {
		return false
	}
	if laneOverride != nil {
		return laneOverride()
	}
	n := 0
	for _, node := range s.plan.Nodes {
		if node.Role != optimizer.RoleOperator {
			continue
		}
		// A placeholder is read even when only borrowers read it.
		switch l := node.Logical; {
		case l.Contract == dataflow.Source && s.liveNow[node.ID]:
			n += len(l.Data)
		case l.Contract == dataflow.IterationInput:
			for _, part := range s.e.Placeholder[l.ID] {
				n += len(part)
			}
		}
	}
	for _, b := range s.borrows { // a borrowed Source is read until its cache fills
		if b.from.Contract == dataflow.Source && !b.slot.filled {
			n += len(b.b)
		}
	}
	return n < serialLaneRecords
}

// Close releases the session's workers. Idempotent. The executor's caches
// and solution set are untouched.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.workers {
		close(w.fire)
	}
}

type outSpec struct {
	ex   *exchange // nil: into sink
	ship optimizer.ShipStrategy
	key  record.KeyFunc
	sink int
}

// No record changes partition on a forward edge, or on any edge at
// Parallelism 1. Two kinds of such an edge carry no exchange, so each
// record is copied once, not into pooled batches first:
//
//   - borrowed: out of a plain Source on a cached edge, or out of a plain
//     IterationInput on an uncached one (plain: no union, fused Map or
//     combiner absorbed), into anything but a sink. The consumer reads
//     the producer's share (Executor.share) in place (borrowStream); the
//     producer's task does not run for the edge. A placeholder's cache
//     would keep the driver's slice past the superstep, so a cached edge
//     out of one ships.
//   - into a sink, uncached: the producer's writer appends to the sink's
//     result (writer.res); the sink task does not run.
func borrowed(n *optimizer.PhysNode, edge *optimizer.Edge, par int) bool {
	p, want := edge.From, dataflow.IterationInput
	if edge.Cache {
		want = dataflow.Source
	}
	return stays(edge, par) && n.Logical.Contract != dataflow.Sink && p.Role == optimizer.RoleOperator &&
		p.Logical.Contract == want && p.Union == nil && len(p.FusedChain) == 0 && p.Combiner == nil
}

func intoSink(n *optimizer.PhysNode, edge *optimizer.Edge, par int) bool {
	return !edge.Cache && stays(edge, par) && n.Role == optimizer.RoleOperator && n.Logical.Contract == dataflow.Sink
}

func stays(edge *optimizer.Edge, par int) bool {
	return edge.Ship == optimizer.ShipForward || par == 1
}

// compile computes the superstep's schedule — which nodes run, and which
// edges carry an exchange — and rewires tasks only when it differs from
// the one they are wired for. In the steady state of an iteration (same
// schedule, same cache generation) it allocates nothing and only resets
// the active exchanges.
func (s *Session) compile() {
	e, par := s.e, s.par

	// Liveness: skip subtrees whose output is already cached.
	for i := range s.liveNow {
		s.liveNow[i] = false
	}
	var mark func(n *optimizer.PhysNode)
	mark = func(n *optimizer.PhysNode) {
		if s.liveNow[n.ID] {
			return
		}
		s.liveNow[n.ID] = true
		for i := range n.Inputs {
			edge := &n.Inputs[i]
			if edge.Cache && s.cacheFilled(n, i) || borrowed(n, edge, par) {
				continue
			}
			mark(edge.From)
		}
	}
	for _, sink := range s.plan.Sinks {
		mark(sink)
	}

	// Active edges: every live consumer's input that is not served from
	// a filled cache. Tracked separately from node liveness because an
	// edge can go cache-satisfied while its producer stays live through
	// another consumer — the producer must then stop feeding it.
	for i := range s.edgeNow {
		s.edgeNow[i] = false
	}
	for _, n := range s.plan.Nodes {
		if !s.liveNow[n.ID] {
			continue
		}
		for i := range n.Inputs {
			edge := &n.Inputs[i]
			if edge.Cache && s.cacheFilled(n, i) || borrowed(n, edge, par) || intoSink(n, edge, par) {
				continue
			}
			s.edgeNow[edge.ID] = true
		}
	}

	// Unchanged schedule under the same cache generation: fast path.
	// (Close replaces the slot objects, so wiring compiled
	// against an older generation would replay stale caches.)
	if s.compiled && s.genPrev == e.cacheGen &&
		slices.Equal(s.liveNow, s.livePrev) && slices.Equal(s.edgeNow, s.edgePrev) {
		s.resetActive()
		return
	}
	s.compiled = true
	s.genPrev = e.cacheGen
	copy(s.livePrev, s.liveNow)
	copy(s.edgePrev, s.edgeNow)

	// Exchanges for every active edge, keyed by the plan's stable edge
	// identity so later schedules find them again.
	s.active = s.active[:0]
	outs := make(map[int][]outSpec) // producer node ID -> outputs
	for _, n := range s.plan.Nodes {
		for i := range n.Inputs {
			edge := &n.Inputs[i]
			if s.liveNow[n.ID] && intoSink(n, edge, par) {
				outs[edge.From.ID] = append(outs[edge.From.ID], outSpec{sink: n.Logical.ID})
			}
			if !s.edgeNow[edge.ID] {
				continue
			}
			ex := s.exchanges[edge.ID]
			if ex == nil {
				ex = newExchange(edge.ID, par, par, s.pool)
				s.exchanges[edge.ID] = ex
			}
			s.active = append(s.active, ex)
			outs[edge.From.ID] = append(outs[edge.From.ID], outSpec{
				ex: ex, ship: edge.Ship, key: edge.Key,
			})
		}
	}

	// Rewire every task for the new schedule.
	s.borrows, s.sinkWriters, s.running = s.borrows[:0], s.sinkWriters[:0], s.running[:0]
	for idx, t := range s.tasks {
		w := s.workers[idx]
		n := t.n
		if !s.liveNow[n.ID] || n.Logical.Contract == dataflow.Sink && intoSink(n, &n.Inputs[0], par) {
			t.ins, t.slots, t.outs = nil, nil, nil
			continue
		}
		s.running = append(s.running, w)
		t.ins = make([]inStream, len(n.Inputs))
		t.slots = make([]*cacheSlot, len(n.Inputs))
		for i := range n.Inputs {
			edge := &n.Inputs[i]
			if edge.Cache {
				t.slots[i] = e.slot(n, i, t.part)
			}
			switch {
			case s.edgeNow[edge.ID]:
				t.ins[i] = queueStream{q: s.exchanges[edge.ID].queues[t.part]}
			case borrowed(n, edge, par):
				b := &borrowStream{from: edge.From.Logical, part: t.part, slot: t.slots[i]}
				t.ins[i] = b
				s.borrows = append(s.borrows, b)
			}
		}
		t.outs = t.outs[:0]
		for _, o := range outs[n.ID] {
			if o.ex == nil { // whatever the edge's strategy, records stay put
				sw := &writer{ship: optimizer.ShipForward, ownPart: t.part, sink: o.sink}
				t.outs = append(t.outs, sw)
				s.sinkWriters = append(s.sinkWriters, sw)
				continue
			}
			t.outs = append(t.outs, newWriter(o.ex, o.ship, o.key, t.part, s.pool, e.cfg.Metrics, s.hosted, s.tr, &w.lane))
		}
	}
	s.resetActive()
}

// resetActive rearms the schedule's exchanges, hands each borrowed stream
// its share for the next superstep and accounts reuse. With a transport,
// each exchange is armed only after its reset, so remote traffic that
// raced ahead of the barrier flushes into fresh queues instead of being
// swept away as a previous superstep's leftovers.
func (s *Session) resetActive() {
	for _, b := range s.borrows {
		b.b = s.e.share(b.from, b.part, s.par)
	}
	reused := int64(0)
	for _, ex := range s.active {
		ex.reset(s.par, s.pool)
		if s.tr != nil {
			s.tr.arm(ex)
		}
		if ex.used {
			reused++
		} else {
			ex.used = true
		}
	}
	if m := s.e.cfg.Metrics; m != nil && reused > 0 {
		m.ExchangesReused.Add(reused)
	}
}

// cacheFilled reports whether the cached input's slots are filled for
// every partition this session hosts. Hosted-only is what keeps the
// superstep schedule identical across the processes of a distributed
// session: each process fills its own partitions' slots on the same
// superstep, so "cache satisfied" flips everywhere at once.
func (s *Session) cacheFilled(n *optimizer.PhysNode, input int) bool {
	for _, p := range s.hostedParts {
		if c, ok := s.e.slots[slotKey{n.ID, input, p}]; !ok || !c.filled {
			return false
		}
	}
	return true
}
