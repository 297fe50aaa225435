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
// spawning and nearly all heap allocation. An edge on which no record
// changes partition carries no exchange when it leaves a plain placeholder
// uncached or a plain Source cached (see borrowed): the consumer reads its
// share in place, so a constant path's cache is built straight from
// Source.Data. Executor.Run is the one-shot convenience wrapper for
// non-iterative plans.
//
// A superstep takes one of two lanes over the same tasks, exchanges and
// operator code. The parallel lane fires the parked workers of the tasks
// that run: not a placeholder's or a Source's whose consumers all borrow
// it, nor a sink's that its producer fills. The serial lane runs the same
// tasks inline on the calling goroutine in plan.Nodes order — topological,
// and the queues are unbounded, so every consumer finds its producers finished
// and its queues closed: no wake-ups, no blocking, deterministic order.
// Session.Run picks per superstep from what it can observe: a session with
// a transport always runs parallel (its peers interlock on the exchanges);
// otherwise the serial lane is taken when the records the superstep will
// read (every placeholder partition, the data of still-live Source nodes,
// and the share of each borrowed Source whose cache is still to fill)
// number fewer than serialLaneRecords, the crossover
// BenchmarkSuperstepLanes measures. Work counters are tallied
// per task and published at task end, each writer and its batch buffers
// sit on cache lines of their own, and a solution partition has one owner
// and no lock, so neither lane touches a shared cache line per record.
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
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/record"
)

// SolutionSet is the partitioned, keyed, mutable state of an incremental
// iteration (§5.1/§5.3): each partition holds a primary hash index from
// key to the current record. It lives across supersteps; delta sets are
// merged with the ∪̇ operator, optionally arbitrated by a comparator that
// keeps the CPO-successor record.
//
// Every partition has one owner at a time, and no lock. During a
// superstep only partition p's solution task touches partition p: its
// SolutionJoin/CoGroup lookups and, under direct merge, its puts — the
// §5.2 locality condition keeps k(s), so every delta of p's task is p's
// (a delta that is not fails the run, see ownerError). Between supersteps
// only the driver touches the set, or whoever holds the view's lock;
// concurrent readers (lookups, Size, Bytes, EachPartition) may share it
// when nothing writes. The spill backend keeps its own mutex, because its
// eviction crosses partitions.
type SolutionSet struct {
	backend SolutionBackend
	par     int
	key     record.KeyFunc
	cmp     record.Comparator
	m       *metrics.Counters
}

// ownerError is the failure of a direct-merge superstep whose solution
// operator emitted a delta keyed to another partition: the operator
// declared k(s) preserved (§5.2 condition 4) but changed it, so the
// delta's partition has another owner.
type ownerError struct {
	node        string
	key         int64
	part, owner int
}

func (e *ownerError) Error() string {
	return fmt.Sprintf("runtime: solution operator %q in partition %d emitted key %d, which partition %d owns: "+
		"a direct-merge Δ must keep k(s) (§5.2)", e.node, e.part, e.key, e.owner)
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
	parallelism = max(parallelism, 1)
	return &SolutionSet{
		backend: newSolutionBackend(parallelism, key, m, budget),
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
	for p, part := range s.group(recs) {
		for _, r := range part {
			s.backend.Store(p, s.key(r), r)
		}
	}
	s.publishBytes()
}

// Lookup probes partition part for key k. It counts a solution access.
// (Superstep tasks probe the backend and count in their own tally instead.)
func (s *SolutionSet) Lookup(part int, k int64) (record.Record, bool) {
	if s.m != nil {
		s.m.SolutionAccesses.Add(1)
	}
	return s.backend.Lookup(part, k)
}

// put writes r under key k into partition part, which owns k, honoring the
// comparator: the CPO-larger record wins (§5.1). It reports whether the
// stored record changed; counting the update is the caller's job.
func (s *SolutionSet) put(part int, k int64, r record.Record) bool {
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

// MergeDelta applies delta sets with the ∪̇ operator: every delta record
// replaces the solution record under the same key (subject to the
// comparator), new keys are inserted. It returns the number of records
// that actually changed the solution.
//
// The delta is applied partition-grouped: each partition is visited once,
// with all of its updates. For the spill
// backend this is the difference between one reload per partition per
// superstep and one reload per record — a partition-interleaved merge
// under a tight budget would otherwise thrash the eviction path. Parts
// that already are the set's partitions, as a sink partitioned on the key
// delivers them, are applied where they are; any others are grouped first.
func (s *SolutionSet) MergeDelta(parts ...[]record.Record) int {
	if !s.byPartition(parts) {
		parts = s.group(slices.Concat(parts...))
	}
	changed := 0
	for p, part := range parts {
		if len(part) == 0 {
			continue
		}
		for _, r := range part {
			if s.put(p, s.key(r), r) {
				changed++
			}
		}
	}
	s.noteUpdates(changed)
	return changed
}

// byPartition reports whether parts are the set's partitions: one per
// partition, each holding only keys of its own.
func (s *SolutionSet) byPartition(parts [][]record.Record) bool {
	switch {
	case len(parts) != s.par:
		return false
	case s.par == 1:
		return true // every key is partition 0's
	}
	for p, part := range parts {
		for _, r := range part {
			if record.PartitionOf(s.key(r), s.par) != p {
				return false
			}
		}
	}
	return true
}

// group splits recs by partition into one backing array (recs itself at
// Parallelism 1).
func (s *SolutionSet) group(recs []record.Record) [][]record.Record {
	if s.par == 1 {
		return [][]record.Record{recs}
	}
	counts := make([]int, s.par)
	for _, r := range recs {
		counts[record.PartitionOf(s.key(r), s.par)]++
	}
	grouped, parts := make([]record.Record, len(recs)), make([][]record.Record, s.par)
	offset := 0
	for p, n := range counts {
		parts[p] = grouped[offset : offset : offset+n]
		offset += n
	}
	for _, r := range recs {
		p := record.PartitionOf(s.key(r), s.par)
		parts[p] = append(parts[p], r)
	}
	return parts
}

// ForceStore overwrites the entry under r's key unconditionally, bypassing
// the comparator. Live maintenance needs it for bounded recomputes after
// deletions: the affected entries must be movable to a CPO-*smaller* state
// (e.g. a component label re-initialized to the vertex's own id), which
// put would reject as a regression.
func (s *SolutionSet) ForceStore(r record.Record) {
	k := s.key(r)
	s.backend.Store(record.PartitionOf(k, s.par), k, r)
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
	ok := s.backend.Delete(record.PartitionOf(k, s.par), k)
	s.publishBytes()
	return ok
}

// Size returns the total number of records.
func (s *SolutionSet) Size() int {
	n := 0
	for p := 0; p < s.par; p++ {
		n += s.backend.Len(p)
	}
	return n
}

// Snapshot copies all records out (order unspecified). Spilled partitions
// are streamed from disk without being forced back into memory.
func (s *SolutionSet) Snapshot() []record.Record {
	out := make([]record.Record, 0, s.Size())
	for p := 0; p < s.par; p++ {
		s.backend.Each(p, func(r record.Record) { out = append(out, r) })
	}
	return out
}

// EachPartition visits every record of one partition without
// materializing a copy. Snapshot writers iterate partitions in ascending
// order through it: the partition boundary is a natural point to flush a
// frame and check for write errors, and a spilled partition streams from
// disk without being forced resident, so a full-solution snapshot never
// needs the whole set in memory. The callback must not call back into the
// set.
func (s *SolutionSet) EachPartition(part int, f func(record.Record)) {
	s.backend.Each(part, f)
}

// Reset empties the solution set for a new generation, retaining backend
// capacity (compact slabs, map buckets) so steady-state reuse across runs
// on one session avoids reallocation. Spill files are deleted.
func (s *SolutionSet) Reset() {
	s.backend.Reset()
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
