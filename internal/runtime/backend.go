package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/record"
)

// SolutionBackend is the storage engine behind a SolutionSet: a keyed
// record index split into partitions by record.PartitionOf. The backend
// stores and retrieves records; key extraction, comparator arbitration and
// partition routing stay in SolutionSet. Implementations must allow
// concurrent calls on *distinct* partitions; SolutionSet serializes all
// access within one partition through its sharded locks, so a backend only
// needs internal synchronization for state shared across partitions (the
// spill backend's residency accounting, for example).
type SolutionBackend interface {
	// Lookup probes partition part for key k.
	Lookup(part int, k int64) (record.Record, bool)
	// Store inserts or overwrites the record under key k in partition part.
	Store(part int, k int64, r record.Record)
	// Delete removes the record under key k from partition part, reporting
	// whether an entry existed. Live maintenance uses it when vertices
	// leave the graph and when bounded recomputes retract state.
	Delete(part int, k int64) bool
	// Len returns the number of records in partition part.
	Len(part int) int
	// Each visits every record of partition part (order unspecified). It
	// must not force a spilled partition back into memory.
	Each(part int, f func(record.Record))
	// Reset drops all records, retaining allocated capacity where the
	// implementation supports generational reuse.
	Reset()
	// Bytes estimates the resident in-memory footprint (serialized-form
	// accounting, record.EncodedSize per record, as Executor.CachedBytes
	// counts caches).
	Bytes() int64
}

// --- compact backend -----------------------------------------------------

// compactIndex is one partition of the compact backend: a probeIndex over
// the keys with one record per key in a parallel slab. Records are
// appended to recs and updated in place, so iteration order is insertion
// order. Slabs are retained across reset(), giving steady-state
// generations allocation-free rebuilds; deletes swap-remove.
type compactIndex struct {
	probeIndex
	recs []record.Record
}

// reserve sizes the index for at least n records.
func (c *compactIndex) reserve(n int) {
	c.probeIndex.reserve(n)
	if cap(c.recs) < n {
		recs := make([]record.Record, len(c.recs), n)
		copy(recs, c.recs)
		c.recs = recs
	}
}

func (c *compactIndex) lookup(k int64) (record.Record, bool) {
	pos := c.find(k)
	if pos < 0 {
		return record.Record{}, false
	}
	return c.recs[pos], true
}

// store inserts or overwrites; it reports whether a new key was inserted.
func (c *compactIndex) store(k int64, r record.Record) bool {
	pos, added := c.insert(k)
	if added {
		c.recs = append(c.recs, r)
	} else {
		c.recs[pos] = r
	}
	return added
}

// delete removes key k, reporting whether it was present; the last record
// fills the hole, mirroring the key slab.
func (c *compactIndex) delete(k int64) bool {
	pos := c.remove(k)
	if pos < 0 {
		return false
	}
	last := len(c.recs) - 1
	c.recs[pos] = c.recs[last]
	c.recs = c.recs[:last]
	return true
}

// reset empties the index, keeping the slabs for the next generation.
func (c *compactIndex) reset() {
	c.clear()
	c.recs = c.recs[:0]
}

// release drops the slabs entirely (used by the spill backend so an
// evicted partition actually returns its memory).
func (c *compactIndex) release() { *c = compactIndex{} }

func (c *compactIndex) bytes() int64 {
	return int64(len(c.recs)) * record.EncodedSize
}

// compactBackend is one compactIndex per partition.
type compactBackend struct {
	parts []compactIndex
	bytes atomic.Int64
}

func newCompactBackend(parallelism int) *compactBackend {
	return &compactBackend{parts: make([]compactIndex, parallelism)}
}

func (b *compactBackend) Lookup(part int, k int64) (record.Record, bool) {
	return b.parts[part].lookup(k)
}

func (b *compactBackend) Store(part int, k int64, r record.Record) {
	if b.parts[part].store(k, r) {
		b.bytes.Add(record.EncodedSize)
	}
}

func (b *compactBackend) Delete(part int, k int64) bool {
	if !b.parts[part].delete(k) {
		return false
	}
	b.bytes.Add(-record.EncodedSize)
	return true
}

func (b *compactBackend) Len(part int) int { return len(b.parts[part].recs) }

func (b *compactBackend) Each(part int, f func(record.Record)) {
	for _, r := range b.parts[part].recs {
		f(r)
	}
}

func (b *compactBackend) Reset() {
	for i := range b.parts {
		b.parts[i].reset()
	}
	b.bytes.Store(0)
}

func (b *compactBackend) Bytes() int64 { return b.bytes.Load() }

// Reserve pre-sizes one partition's slabs for n records (bulk Init).
func (b *compactBackend) Reserve(part, n int) { b.parts[part].reserve(n) }

// --- spill backend -------------------------------------------------------

// spillChunk bounds the batch size of solution spill files so replay
// streams in fixed-size steps.
const spillChunk = 1024

// ErrSolutionSpillLost is wrapped by the error a run returns when an
// evicted solution-set partition cannot be read back: its spill file was
// deleted, truncated or corrupted, so the partition's records are gone.
var ErrSolutionSpillLost = errors.New("runtime: solution spill file lost")

// spillPart is one partition of the spill backend: resident (idx live,
// file nil) or evicted (idx released, records in file). count stays valid
// in both states.
type spillPart struct {
	idx     compactIndex
	file    *spillFile
	count   int
	lastUse uint64
}

// spillBackend enforces a memory budget over compact partitions by
// evicting the least-recently-used partitions to disk in
// record.EncodeBatch form. All methods take one internal mutex: residency
// accounting and cross-partition eviction are inherently global, and the
// out-of-core backend trades lock granularity for bounded memory. (The
// compact backend keeps the lock-free-per-partition fast path.)
type spillBackend struct {
	mu       sync.Mutex
	key      record.KeyFunc
	budget   int64
	m        *metrics.Counters
	parts    []spillPart
	clock    uint64
	resident int64
	// err is the first partition loss (see SolutionSet.Err).
	err error
}

func newSpillBackend(parallelism int, key record.KeyFunc, budget int64, m *metrics.Counters) *spillBackend {
	return &spillBackend{
		key:    key,
		budget: budget,
		m:      m,
		parts:  make([]spillPart, parallelism),
	}
}

// ensure makes partition part resident, replaying its spill file if it was
// evicted. Caller holds mu.
func (b *spillBackend) ensure(part int) {
	p := &b.parts[part]
	b.clock++
	p.lastUse = b.clock
	if p.file == nil {
		return
	}
	p.idx.reserve(p.count)
	err := p.file.replay(func(batch record.Batch) {
		for _, r := range batch {
			p.idx.store(b.key(r), r)
		}
	})
	if err != nil {
		b.lose(part, err)
		return
	}
	p.file.remove()
	p.file = nil
	b.resident += p.idx.bytes()
	if b.m != nil {
		b.m.SolutionReloads.Add(1)
	}
	b.enforceBudget(part)
}

// lose records that partition part's spill file could not be replayed:
// whatever the replay got through is dropped rather than served as half a
// partition, the file is deleted, and the partition reads as empty from
// here on. The run sees the loss through SolutionSet.Err. Caller holds mu.
func (b *spillBackend) lose(part int, err error) {
	p := &b.parts[part]
	p.idx.release()
	p.file.remove()
	p.file, p.count = nil, 0
	if b.err == nil {
		b.err = fmt.Errorf("%w: partition %d: %v", ErrSolutionSpillLost, part, err)
	}
}

// enforceBudget evicts LRU resident partitions (never keep) until the
// resident estimate fits the budget. Caller holds mu.
func (b *spillBackend) enforceBudget(keep int) {
	for b.resident > b.budget {
		victim := -1
		for i := range b.parts {
			p := &b.parts[i]
			if i == keep || p.file != nil || len(p.idx.recs) == 0 {
				continue
			}
			if victim < 0 || p.lastUse < b.parts[victim].lastUse {
				victim = i
			}
		}
		if victim < 0 {
			return // only the active partition is left; budget is best-effort
		}
		if !b.evict(victim) {
			// Spill failed (disk full, unwritable tempdir): stay resident
			// over budget rather than re-selecting the same victim forever.
			return
		}
	}
}

// evict writes partition part to a spill file and releases its slabs,
// reporting success. Caller holds mu.
func (b *spillBackend) evict(part int) bool {
	p := &b.parts[part]
	recs := p.idx.recs
	batches := make([]record.Batch, 0, (len(recs)+spillChunk-1)/spillChunk)
	for lo := 0; lo < len(recs); lo += spillChunk {
		hi := lo + spillChunk
		if hi > len(recs) {
			hi = len(recs)
		}
		batches = append(batches, recs[lo:hi])
	}
	sf, err := spillBatches(batches)
	if err != nil {
		return false // spilling is an optimization; keep the partition
	}
	b.resident -= p.idx.bytes()
	p.count = len(recs)
	p.idx.release()
	p.file = sf
	if b.m != nil {
		b.m.SolutionSpills.Add(1)
	}
	return true
}

func (b *spillBackend) Lookup(part int, k int64) (record.Record, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(part)
	return b.parts[part].idx.lookup(k)
}

func (b *spillBackend) Store(part int, k int64, r record.Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(part)
	p := &b.parts[part]
	if p.idx.store(k, r) {
		p.count++
		b.resident += record.EncodedSize
		b.enforceBudget(part)
	}
}

func (b *spillBackend) Delete(part int, k int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure(part)
	p := &b.parts[part]
	if !p.idx.delete(k) {
		return false
	}
	p.count = len(p.idx.recs)
	b.resident -= record.EncodedSize
	return true
}

func (b *spillBackend) Len(part int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := &b.parts[part]
	if p.file != nil {
		return p.count
	}
	return len(p.idx.recs)
}

// Each streams an evicted partition straight from its spill file, so a
// full Snapshot never forces the set over budget.
func (b *spillBackend) Each(part int, f func(record.Record)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := &b.parts[part]
	if p.file != nil {
		if err := p.file.replay(func(batch record.Batch) {
			for _, r := range batch {
				f(r)
			}
		}); err != nil {
			b.lose(part, err)
		}
		return
	}
	for _, r := range p.idx.recs {
		f(r)
	}
}

func (b *spillBackend) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.parts {
		p := &b.parts[i]
		if p.file != nil {
			p.file.remove()
			p.file = nil
		}
		p.idx.reset()
		p.count = 0
	}
	b.resident, b.err = 0, nil
}

func (b *spillBackend) Bytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resident
}

// newSolutionBackend picks the store from the memory budget: the compact
// index when there is none, the spillable index when budget > 0 (§4.3's
// gradual spilling applied to the solution set). The budget is
// best-effort: the partition currently being accessed always stays
// resident.
func newSolutionBackend(parallelism int, key record.KeyFunc, m *metrics.Counters, budget int64) SolutionBackend {
	if budget > 0 {
		return newSpillBackend(parallelism, key, budget, m)
	}
	return newCompactBackend(parallelism)
}
