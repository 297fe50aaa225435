// Package runtime executes physical plans: it instantiates each physical
// operator once per partition, connects partitions with forward /
// hash-partition / broadcast exchanges, implements the local strategies
// (hash and sort-merge joins, hash and sort aggregation), materializes
// loop-invariant inputs into caches — including cached hash tables for
// join build sides — and hosts the partitioned, indexed solution set of
// incremental iterations. When a constant input's data changes by a
// delta, Executor.PatchSource edits the cached build-side tables in place
// (records routed the way the cached edge shipped them, hosted slots
// only) instead of dropping every cache for the next superstep to refill.
//
// Execution is session-based: Executor.OpenSession spawns one persistent,
// partition-pinned worker goroutine per (operator, partition), and each
// Session.Run is one superstep over those workers. Exchanges are keyed by
// the plan's stable edge identities and reset (not rebuilt) between
// supersteps, record batches are recycled through a sync.Pool-backed
// batchPool, and per-task group tables and sort buffers persist across
// passes — so an iteration's steady-state supersteps avoid both goroutine
// spawning and nearly all heap allocation. Executor.Run is the one-shot
// convenience wrapper for non-iterative plans.
//
// A superstep takes one of two lanes over the same tasks, exchanges and
// operator code. The parallel lane fires the parked workers. The serial
// lane runs the live tasks inline on the calling goroutine in plan.Nodes
// order — topological, and the queues are unbounded, so every consumer
// finds its producers finished and its queues closed: no wake-ups, no
// blocking, deterministic order. Session.Run picks per superstep from what
// it can observe: a session with a transport always runs parallel (its
// peers interlock on the exchanges); otherwise the serial lane is taken
// when the records the superstep will read (placeholder partitions of live
// IterationInput nodes plus the data of still-live Source nodes) number
// fewer than serialLaneRecords, the crossover BenchmarkSuperstepLanes
// measures. Work counters are tallied per task and published at task end,
// so neither lane touches a shared cache line per record.
//
// Fused operator chains (optimizer.PhysNode.FusedChain) execute inside
// the head operator's emitter: each emitted record flows through the
// absorbed Map/filter/project UDFs record-at-a-time before it is
// batched, so a fused edge costs a function call instead of an exchange
// hop (queue round-trip, batch copy, pool cycle) per superstep. An
// absorbed union (optimizer.PhysNode.Union) adds the union's other inputs
// to the head's: the task streams them into the same emitter after its
// operator's own output, in input order. An absorbed combiner (optimizer.PhysNode.Combiner) sits at the end of that
// chain: every record is folded into its key's running accumulator on
// arrival (combineFold), and the accumulators are written to the
// combiner's consumers when the task's operator finishes, before its
// writers close. A standalone combiner task runs the same fold over its
// drained input.
//
// The solution set stores its records in one of two SolutionBackends,
// chosen by its memory budget: a compact open-addressing index over flat
// record slabs when there is no budget, and the same index made spillable,
// evicting cold partitions to disk, when there is one — the §4.3
// gradual-spilling rule applied to iteration state, which lets incremental
// iterations run out-of-core.
package runtime

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/record"
)

// SolutionSet is the partitioned, keyed, mutable state of an incremental
// iteration (§5.1/§5.3): each partition holds a primary hash index from
// key to the current record. It lives across supersteps; delta sets are
// merged with the ∪̇ operator, optionally arbitrated by a comparator that
// keeps the CPO-successor record.
//
// Every partition is guarded by its own sharded lock, so concurrent
// updates — the microstep Update path and DirectMerge superstep emitters —
// are safe even when a record's key routes it to a partition other than
// the calling worker's (partition pinning is the common case, not a
// correctness requirement).
type SolutionSet struct {
	backend SolutionBackend
	locks   []sync.Mutex
	par     int
	key     record.KeyFunc
	cmp     record.Comparator
	m       *metrics.Counters
}

// NewSolutionSet creates an empty solution set with the given partition
// count, identifying key, and optional comparator (nil = delta always
// replaces), backed by the default compact index.
func NewSolutionSet(parallelism int, key record.KeyFunc, cmp record.Comparator, m *metrics.Counters) *SolutionSet {
	return NewSolutionSetWith(parallelism, key, cmp, m, 0)
}

// NewSolutionSetWith is NewSolutionSet with a memory budget: budget > 0
// bounds the resident bytes (serialized-form estimate) and spills cold
// partitions to disk past it; budget <= 0 keeps every partition in the
// compact in-memory index. The budget is best-effort: the partition being
// accessed always stays resident.
func NewSolutionSetWith(parallelism int, key record.KeyFunc, cmp record.Comparator, m *metrics.Counters, budget int64) *SolutionSet {
	if parallelism < 1 {
		parallelism = 1
	}
	return &SolutionSet{
		backend: newSolutionBackend(parallelism, key, m, budget),
		locks:   make([]sync.Mutex, parallelism),
		par:     parallelism,
		key:     key,
		cmp:     cmp,
		m:       m,
	}
}

// Parallelism returns the number of partitions.
func (s *SolutionSet) Parallelism() int { return s.par }

// Init loads the initial solution set S0, hash-partitioned by key. Records
// are applied partition-grouped (one pass per partition), so the compact
// backend can size its slabs from the bulk load and the spill backend
// fills each partition once instead of ping-ponging between them.
func (s *SolutionSet) Init(recs []record.Record) {
	if cb, ok := s.backend.(*compactBackend); ok {
		per := len(recs)/s.par + 1
		for p := 0; p < s.par; p++ {
			cb.Reserve(p, per)
		}
	}
	if s.par == 1 {
		s.locks[0].Lock()
		for _, r := range recs {
			s.backend.Store(0, s.key(r), r)
		}
		s.locks[0].Unlock()
		s.publishBytes()
		return
	}
	parts := make([][]record.Record, s.par)
	for _, r := range recs {
		p := record.PartitionOf(s.key(r), s.par)
		parts[p] = append(parts[p], r)
	}
	for p := 0; p < s.par; p++ {
		if len(parts[p]) == 0 {
			continue
		}
		s.locks[p].Lock()
		for _, r := range parts[p] {
			s.backend.Store(p, s.key(r), r)
		}
		s.locks[p].Unlock()
	}
	s.publishBytes()
}

// Lookup probes partition part for key k. It counts a solution access.
// (Superstep tasks use lookup and count in their own tally instead.)
func (s *SolutionSet) Lookup(part int, k int64) (record.Record, bool) {
	if s.m != nil {
		s.m.SolutionAccesses.Add(1)
	}
	return s.lookup(part, k)
}

func (s *SolutionSet) lookup(part int, k int64) (record.Record, bool) {
	s.locks[part].Lock()
	r, ok := s.backend.Lookup(part, k)
	s.locks[part].Unlock()
	return r, ok
}

// putLocked writes r under key k into partition part, honoring the
// comparator: the CPO-larger record wins (§5.1). It reports whether the
// stored record changed; counting the update is the caller's job. The
// caller holds the partition's lock.
func (s *SolutionSet) putLocked(part int, k int64, r record.Record) bool {
	old, exists := s.backend.Lookup(part, k)
	if exists && s.cmp != nil && s.cmp(r, old) <= 0 {
		return false // the existing record is the successor state; drop r
	}
	if exists && old.Equal(r) {
		return false
	}
	s.backend.Store(part, k, r)
	return true
}

// put is putLocked for a single record, taking the partition lock.
func (s *SolutionSet) put(r record.Record) bool {
	k := s.key(r)
	part := record.PartitionOf(k, s.par)
	s.locks[part].Lock()
	changed := s.putLocked(part, k, r)
	s.locks[part].Unlock()
	return changed
}

// noteUpdates counts n applied updates and refreshes the bytes gauge.
func (s *SolutionSet) noteUpdates(n int) {
	if s.m != nil {
		s.m.SolutionUpdates.Add(int64(n))
	}
	s.publishBytes()
}

// publishBytes refreshes the resident-bytes gauge.
func (s *SolutionSet) publishBytes() {
	if s.m != nil {
		s.m.SolutionBytes.Store(s.backend.Bytes())
	}
}

// MergeDelta applies a delta set with the ∪̇ operator: every delta record
// replaces the solution record under the same key (subject to the
// comparator), new keys are inserted. It returns the number of records
// that actually changed the solution.
//
// The delta is applied partition-grouped: each partition is visited once,
// under one lock acquisition, with all of its updates. For the spill
// backend this is the difference between one reload per partition per
// superstep and one reload per record — a partition-interleaved merge
// under a tight budget would otherwise thrash the eviction path.
func (s *SolutionSet) MergeDelta(delta []record.Record) int {
	changed := 0
	if s.par == 1 {
		s.locks[0].Lock()
		for _, r := range delta {
			if s.putLocked(0, s.key(r), r) {
				changed++
			}
		}
		s.locks[0].Unlock()
		s.noteUpdates(changed)
		return changed
	}
	// Two passes over the delta: count per-partition, then fill one
	// backing array partition-contiguously (no per-partition slices).
	counts := make([]int, s.par)
	for _, r := range delta {
		counts[record.PartitionOf(s.key(r), s.par)]++
	}
	offsets := make([]int, s.par+1)
	for p := 0; p < s.par; p++ {
		offsets[p+1] = offsets[p] + counts[p]
	}
	grouped := make([]record.Record, len(delta))
	fill := append([]int(nil), offsets[:s.par]...)
	for _, r := range delta {
		p := record.PartitionOf(s.key(r), s.par)
		grouped[fill[p]] = r
		fill[p]++
	}
	for p := 0; p < s.par; p++ {
		if offsets[p] == offsets[p+1] {
			continue
		}
		s.locks[p].Lock()
		for _, r := range grouped[offsets[p]:offsets[p+1]] {
			if s.putLocked(p, s.key(r), r) {
				changed++
			}
		}
		s.locks[p].Unlock()
	}
	s.noteUpdates(changed)
	return changed
}

// Update applies a single delta record immediately (microstep execution,
// §5.2: the partial solution reflects the modification when the next
// element is processed). It reports whether the solution changed.
func (s *SolutionSet) Update(r record.Record) bool {
	changed := s.put(r)
	if changed && s.m != nil {
		s.m.SolutionUpdates.Add(1)
	}
	// Refresh the gauge even when the record was rejected: for the spill
	// backend, the probe itself can reload a partition and evict others,
	// changing residency.
	s.publishBytes()
	return changed
}

// ForceStore overwrites the entry under r's key unconditionally, bypassing
// the comparator. Live maintenance needs it for bounded recomputes after
// deletions: the affected entries must be movable to a CPO-*smaller* state
// (e.g. a component label re-initialized to the vertex's own id), which
// put would reject as a regression.
func (s *SolutionSet) ForceStore(r record.Record) {
	k := s.key(r)
	part := record.PartitionOf(k, s.par)
	s.locks[part].Lock()
	s.backend.Store(part, k, r)
	s.locks[part].Unlock()
	if s.m != nil {
		s.m.SolutionUpdates.Add(1)
	}
	s.publishBytes()
}

// Delete removes the entry under key k, reporting whether one existed.
// Live maintenance uses it when vertices leave the graph and when a
// recompute retracts state that no longer holds (e.g. a vertex made
// unreachable by an edge deletion).
func (s *SolutionSet) Delete(k int64) bool {
	part := record.PartitionOf(k, s.par)
	s.locks[part].Lock()
	ok := s.backend.Delete(part, k)
	s.locks[part].Unlock()
	s.publishBytes()
	return ok
}

// Size returns the total number of records.
func (s *SolutionSet) Size() int {
	n := 0
	for p := 0; p < s.par; p++ {
		s.locks[p].Lock()
		n += s.backend.Len(p)
		s.locks[p].Unlock()
	}
	return n
}

// Snapshot copies all records out (order unspecified). Spilled partitions
// are streamed from disk without being forced back into memory.
func (s *SolutionSet) Snapshot() []record.Record {
	out := make([]record.Record, 0, s.Size())
	for p := 0; p < s.par; p++ {
		s.locks[p].Lock()
		s.backend.Each(p, func(r record.Record) { out = append(out, r) })
		s.locks[p].Unlock()
	}
	return out
}

// Each visits every record under the partition locks (order unspecified)
// without materializing a copy the way Snapshot does. The callback must
// not call back into the set (the partition lock is held). Spilled
// partitions are streamed from disk, not reloaded.
func (s *SolutionSet) Each(f func(record.Record)) {
	for p := 0; p < s.par; p++ {
		s.EachPartition(p, f)
	}
}

// EachPartition visits every record of one partition under its lock,
// without materializing a copy. Snapshot writers iterate partitions in
// ascending order through it: the partition boundary is a natural point
// to flush a frame and check for write errors, and only one partition's
// lock is ever held — a spilled partition streams from disk without
// being forced resident, so a full-solution snapshot never needs the
// whole set in memory. The callback must not call back into the set.
func (s *SolutionSet) EachPartition(part int, f func(record.Record)) {
	s.locks[part].Lock()
	s.backend.Each(part, f)
	s.locks[part].Unlock()
}

// Reset empties the solution set for a new generation, retaining backend
// capacity (compact slabs, map buckets) so steady-state reuse across runs
// on one session avoids reallocation. Spill files are deleted.
func (s *SolutionSet) Reset() {
	for p := 0; p < s.par; p++ {
		s.locks[p].Lock()
	}
	s.backend.Reset()
	for p := s.par - 1; p >= 0; p-- {
		s.locks[p].Unlock()
	}
	s.publishBytes()
}

// Err reports the first evicted partition the spill backend could not
// read back, wrapping ErrSolutionSpillLost; it is always nil for the
// in-memory backends. A lost partition reads as empty, so a run checks
// Err after each merge and after copying the set out.
func (s *SolutionSet) Err() error {
	if b, ok := s.backend.(*spillBackend); ok {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.err
	}
	return nil
}

// Bytes reports the backend's resident in-memory footprint estimate.
func (s *SolutionSet) Bytes() int64 { return s.backend.Bytes() }

// PartitionFor returns the partition owning key k.
func (s *SolutionSet) PartitionFor(k int64) int {
	return record.PartitionOf(k, s.par)
}
