package runtime

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/record"
)

// batchPool recycles record batches through a sync.Pool so steady-state
// supersteps run without per-batch heap allocation. A writer gets a batch,
// fills it and pushes it into one exchange queue; the consumer that pops
// it keeps it in a cache or puts it back once it has read it (a borrowed
// batch is never a pool's: see borrowStream). The pool stores
// *record.Batch headers and keeps the spent ones in a second pool, so
// neither get nor put allocates (a bare slice would be boxed on every
// Put).
type batchPool struct {
	full  sync.Pool // *record.Batch with usable backing arrays
	empty sync.Pool // *record.Batch headers whose slice was handed out
	size  int
	m     *metrics.Counters
}

func newBatchPool(size int, m *metrics.Counters) *batchPool {
	p := &batchPool{size: size, m: m}
	p.full.New = func() any {
		if m != nil {
			m.BatchesAllocated.Add(1)
		}
		b := make(record.Batch, 0, size)
		return &b
	}
	return p
}

// get returns an empty batch with the pool's standard capacity.
func (p *batchPool) get() record.Batch {
	bp := p.full.Get().(*record.Batch)
	b := (*bp)[:0]
	*bp = nil
	p.empty.Put(bp)
	return b
}

// put returns a consumed batch for reuse. Batches that did not originate
// from the pool (undersized foreign slices) are left to the GC.
func (p *batchPool) put(b record.Batch) {
	if cap(b) < p.size {
		return
	}
	if p.m != nil {
		p.m.BatchesRecycled.Add(1)
	}
	bp, _ := p.empty.Get().(*record.Batch)
	if bp == nil {
		bp = new(record.Batch)
	}
	*bp = b[:0]
	p.full.Put(bp)
}
