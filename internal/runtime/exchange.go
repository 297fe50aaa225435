package runtime

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// queue is an unbounded MPSC batch queue. Unbounded buffering is what the
// paper calls a dam on the feedback/exchange level: producers never block,
// which rules out shuffle deadlocks in DAGs where one consumer drains its
// inputs in sequence (e.g. hash-join build before probe).
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []record.Batch
	closed bool
	pool   *batchPool
}

func newQueue(pool *batchPool) *queue {
	q := &queue{pool: pool}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one batch. A push after close — a straggler producer
// racing session teardown, or a remote batch arriving after a failed run
// ended — recycles the batch and drops it: appending it would leak it out
// of the batchPool, since nobody will ever drain a closed queue again.
func (q *queue) push(b record.Batch) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.pool.put(b)
		if q.pool.m != nil {
			q.pool.m.DroppedBatches.Add(1)
		}
		return
	}
	q.items = append(q.items, b)
	q.mu.Unlock()
	q.cond.Signal()
}

// close marks the end of the stream.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// reset reopens the queue for the next superstep, recycling any batches a
// failed run left behind. Only called while no producer or consumer task
// is active (between supersteps).
func (q *queue) reset(pool *batchPool) {
	for _, b := range q.items {
		pool.put(b)
	}
	q.items = q.items[:0]
	q.closed = false
}

// pop blocks for the next batch; ok=false means the stream ended.
func (q *queue) pop() (record.Batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	b := q.items[0]
	q.items = q.items[1:]
	return b, true
}

// exchange connects the producer tasks of a plan edge to the consumer
// tasks of its destination: one queue per consumer partition, closed when
// every producer — in-process tasks and remote peers alike — has
// finished. Within a session, the exchange for a given physical edge is
// allocated once and reset between supersteps.
type exchange struct {
	// id is the plan's stable Edge.ID; the transport routes remote
	// batches by it.
	id        int
	queues    []*queue
	producers atomic.Int32
	// used marks that the exchange has carried at least one superstep;
	// later resets count as reuse in the metrics.
	used bool
}

func newExchange(id, parallelism, producers int, pool *batchPool) *exchange {
	ex := &exchange{id: id, queues: make([]*queue, parallelism)}
	for i := range ex.queues {
		ex.queues[i] = newQueue(pool)
	}
	ex.producers.Store(int32(producers))
	return ex
}

// reset rearms the exchange for another superstep: queues reopen (keeping
// their storage) and the producer count is restored.
func (ex *exchange) reset(producers int, pool *batchPool) {
	for _, q := range ex.queues {
		q.reset(pool)
	}
	ex.producers.Store(int32(producers))
}

// producerDone signals one producer (a local task, or one remote
// producer's end-of-stream frame) finished; the last one closes all
// queues.
func (ex *exchange) producerDone() {
	if ex.producers.Add(-1) == 0 {
		for _, q := range ex.queues {
			q.close()
		}
	}
}

// closeAll force-closes every queue so blocked consumers unblock; used by
// the transport's failure path when the peer carrying the missing
// producers is gone.
func (ex *exchange) closeAll() {
	for _, q := range ex.queues {
		q.close()
	}
}

// writer routes one producer task's output records into an exchange
// according to the edge's shipping strategy, buffering into batches.
// Partitions the session does not host are shipped through the transport
// instead of the in-memory queues.
type writer struct {
	ex      *exchange
	ship    optimizer.ShipStrategy
	key     record.KeyFunc
	ownPart int
	bufs    []record.Batch
	pool    *batchPool
	m       *metrics.Counters
	// hosted marks in-process partitions; nil means all partitions are
	// local (the in-memory transport), which keeps the hot path a single
	// nil check.
	hosted []bool
	tr     Transport
	// remoteParts is how many partitions are not hosted in-process — what
	// one broadcast record adds to RecordsShippedRemote.
	remoteParts int64
	// shipped and shippedRemote tally this superstep's shuffle traffic in
	// plain ints; done adds them to the shared counters.
	shipped, shippedRemote int64
	// lane points at the profiler labels of the lane the producing task
	// runs on this superstep, which a transport call restores afterwards.
	lane *context.Context
}

// sendLabels mark the transport's send side for the profiler: a batch
// shipped to a remote partition and the producer-finished notice, both
// on the producing task's goroutine.
var sendLabels = pprof.WithLabels(context.Background(), pprof.Labels("layer", "transport", "op", "send"))

func newWriter(ex *exchange, ship optimizer.ShipStrategy, key record.KeyFunc, ownPart int, pool *batchPool, m *metrics.Counters, hosted []bool, tr Transport, lane *context.Context) *writer {
	w := &writer{
		ex: ex, ship: ship, key: key, ownPart: ownPart, bufs: make([]record.Batch, len(ex.queues)),
		pool: pool, m: m, hosted: hosted, tr: tr, lane: lane,
	}
	for _, h := range hosted {
		if !h {
			w.remoteParts++
		}
	}
	return w
}

func (w *writer) write(r record.Record) {
	switch w.ship {
	case optimizer.ShipForward:
		w.append(w.ownPart, r)
	case optimizer.ShipPartition:
		p := record.PartitionOf(w.key(r), len(w.bufs))
		if p != w.ownPart {
			// Only records leaving their producing partition count as
			// shuffle traffic; a self-routed record never crosses a
			// worker boundary.
			w.shipped++
			if w.hosted != nil && !w.hosted[p] {
				w.shippedRemote++
			}
		}
		w.append(p, r)
	case optimizer.ShipBroadcast:
		w.shipped += int64(len(w.bufs) - 1)
		w.shippedRemote += w.remoteParts
		for p := range w.bufs {
			w.append(p, r)
		}
	}
}

func (w *writer) append(p int, r record.Record) {
	if w.bufs[p] == nil {
		w.bufs[p] = w.pool.get()
	}
	w.bufs[p] = append(w.bufs[p], r)
	if len(w.bufs[p]) >= exchangeBatch {
		w.flush(p)
	}
}

// flush hands partition p's buffered batch to its destination: the local
// queue when the partition is hosted in-process, the transport otherwise
// (the transport serializes synchronously under sendLabels, so the batch
// is recycled immediately after the send).
func (w *writer) flush(p int) {
	b := w.bufs[p]
	w.bufs[p] = nil
	if w.hosted == nil || w.hosted[p] {
		w.ex.queues[p].push(b)
		return
	}
	pprof.SetGoroutineLabels(sendLabels)
	w.tr.Send(w.ex.id, p, b)
	pprof.SetGoroutineLabels(*w.lane)
	w.pool.put(b)
}

// done flushes remaining buffers, publishes the superstep's shipped-record
// tallies, and releases the producer slot, both locally and — through the
// transport — on every peer process.
func (w *writer) done() {
	for p, b := range w.bufs {
		if len(b) > 0 {
			w.flush(p)
		}
	}
	if w.m != nil && w.shipped != 0 {
		w.m.RecordsShipped.Add(w.shipped)
		if w.shippedRemote != 0 {
			w.m.RecordsShippedRemote.Add(w.shippedRemote)
		}
	}
	w.shipped, w.shippedRemote = 0, 0
	if w.tr != nil {
		pprof.SetGoroutineLabels(sendLabels)
		w.tr.FinishProducer(w.ex.id)
		pprof.SetGoroutineLabels(*w.lane)
	}
	w.ex.producerDone()
}

// inStream yields the batches one consumer task reads for one input.
type inStream interface {
	next() (record.Batch, bool)
}

// queueStream reads from an exchange queue.
type queueStream struct{ q *queue }

func (s queueStream) next() (record.Batch, bool) { return s.q.pop() }

// readAllBatches drains a stream keeping batch boundaries (for caching).
func readAllBatches(in inStream) []record.Batch {
	var out []record.Batch
	for {
		b, ok := in.next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}
