package runtime

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// task is one partition-instance of a physical operator. Tasks live as
// long as their session: the scratch structures below survive across
// supersteps, so re-grouping the dynamic data path each pass reuses the
// previous pass's storage instead of reallocating it.
type task struct {
	e     *Executor
	sess  *Session
	n     *optimizer.PhysNode
	part  int
	par   int
	ins   []inStream
	slots []*cacheSlot
	outs  []*writer
	m     *metrics.Counters
	// labels are the task's serial-lane profiler labels (runtimeLabels),
	// shared by the node's partitions and set whenever it runs inline; its
	// worker carries the parallel-lane ones.
	labels context.Context
	// tables are per-input reusable group tables (hash aggregation,
	// hash-join build sides, SolutionCoGroup).
	tables [2]*groupTable
	// recsBuf are per-input reusable materialization buffers (sorts,
	// block-cross build sides). Contents are only valid within one
	// superstep.
	recsBuf [2][]record.Record
	// fold is the running pre-aggregation of a combiner task or of an
	// absorbed combiner (see combineFold), reused across supersteps.
	fold *combineFold
	// sinkHint is a drained sink's last result length (see writer.hint),
	// and held the batches it takes past that, until it knows their total.
	sinkHint int
	held     []record.Batch
	// udfs, solAccesses and solUpdates tally this superstep's work in plain
	// ints, so no record touches a cache line another core writes.
	udfs, solAccesses, solUpdates int64
	// The pad makes the size a multiple of the 64-B cache line, so the
	// tallies of tasks allocated side by side never share a line.
	_ [56]byte
}

// flushCounters adds the task's tallies to the shared counters, once per
// task per superstep.
func (t *task) flushCounters() {
	if t.m != nil {
		if t.udfs != 0 {
			t.m.UDFInvocations.Add(t.udfs)
		}
		if t.solAccesses != 0 {
			// A probe can reload a spilled partition and an update can grow
			// one: refresh the gauge wherever the solution set was touched.
			t.m.SolutionAccesses.Add(t.solAccesses)
			t.m.SolutionUpdates.Add(t.solUpdates)
			t.e.Solution.publishBytes()
		}
	}
	t.udfs, t.solAccesses, t.solUpdates = 0, 0, 0
}

// scratchTable returns input i's persistent group table, reset for a new
// round.
func (t *task) scratchTable(i int) *groupTable {
	if t.tables[i] == nil {
		t.tables[i] = newGroupTable()
	}
	t.tables[i].reset()
	return t.tables[i]
}

// drain reads every record of input i, releasing each exhausted batch:
// records are values, so once they are copied (or fully processed) the
// batch holds no live state.
func (t *task) drain(i int, f func(record.Record)) {
	in := t.ins[i]
	for b, ok := in.next(); ok; b, ok = in.next() {
		for _, r := range b {
			f(r)
		}
		in.release(b)
	}
}

// appendAll is drain into a slice: it appends every record of input i to
// dst, a batch at a time.
func (t *task) appendAll(i int, dst []record.Record) []record.Record {
	in := t.ins[i]
	for b, ok := in.next(); ok; b, ok = in.next() {
		dst = append(dst, b...)
		in.release(b)
	}
	return dst
}

// emitter fans one record out to all downstream writers.
type taskEmitter struct{ t *task }

func (em taskEmitter) Emit(r record.Record) {
	for _, w := range em.t.outs {
		w.write(r)
	}
}

// fusedEmitter applies one fused Map UDF and hands the results to the next
// stage of the chain — the record-at-a-time execution of a FusedChain. No
// exchange, batch, or pool is involved between fused stages.
type fusedEmitter struct {
	t    *task
	fn   func(record.Record, dataflow.Emitter)
	next dataflow.Emitter
}

func (em fusedEmitter) Emit(r record.Record) {
	em.t.udf()
	em.fn(r, em.next)
}

// emitter returns the task's output emitter: the plain writer fan-out —
// or, when the node absorbed a combiner, that combiner's fold, reset for
// this superstep — wrapped right-to-left in the node's fused UDF chain (if
// any) so fused Maps execute inline on every emitted record.
func (t *task) emitter() dataflow.Emitter {
	var em dataflow.Emitter = taskEmitter{t: t}
	if t.n.Combiner != nil {
		em = t.combiner(t.n.Combiner)
	}
	chain := t.n.FusedChain
	for i := len(chain) - 1; i >= 0; i-- {
		em = fusedEmitter{t: t, fn: chain[i].Map, next: em}
	}
	return em
}

// emitCollector gathers UDF output into a caller-owned buffer.
type emitCollector struct{ buf *[]record.Record }

func (c emitCollector) Emit(r record.Record) { *c.buf = append(*c.buf, r) }

// directMergeEmitter applies each emitted delta to the solution set at
// once and forwards only records that actually advanced the solution.
type directMergeEmitter struct {
	t    *task
	sol  *SolutionSet
	next dataflow.Emitter
}

func (em directMergeEmitter) Emit(r record.Record) {
	if em.sol.put(r) {
		em.t.solUpdates++
		em.next.Emit(r)
	}
}

func (t *task) udf() { t.udfs++ }

// run executes the task for one superstep. A node that absorbed a union
// streams the union's other inputs — its tail inputs, from
// len(Logical.Inputs) on — into the same emitter once the operator is
// done, in input order, as the union's task would have. A node that
// absorbed a combiner folded everything it emitted; the fold's final
// calls go to the writers after that, before runTask closes them.
func (t *task) run() error {
	out := t.emitter()
	if err := t.runOp(out); err != nil {
		return err
	}
	if t.n.Union != nil {
		for i := len(t.n.Logical.Inputs); i < len(t.n.Inputs); i++ {
			t.stream(i, out.Emit)
		}
	}
	if t.n.Combiner != nil {
		t.fold.flush(taskEmitter{t: t})
	}
	return nil
}

// runOp dispatches on role, contract, and local strategy.
func (t *task) runOp(out dataflow.Emitter) error {
	n := t.n
	l := n.Logical

	switch n.Role {
	case optimizer.RoleEnforcer:
		if n.Local == optimizer.LocalSort {
			recs := t.consume(0, n.SortKey)
			for _, r := range recs {
				out.Emit(r)
			}
			return nil
		}
		t.stream(0, func(r record.Record) { out.Emit(r) })
		return nil

	case optimizer.RoleCombiner:
		// Standalone combiner (fusion off, or its edge was not fusible):
		// the same running fold, over the drained input.
		f := t.combiner(l)
		t.stream(0, f.Emit)
		f.flush(out)
		return nil
	}

	switch l.Contract {
	case dataflow.Source, dataflow.IterationInput:
		for _, r := range t.e.share(l, t.part, t.par) {
			out.Emit(r)
		}
		return nil

	case dataflow.Sink:
		if t.slots[0] != nil {
			t.sess.cur[l.ID][t.part] = t.consume(0, nil)
			return nil
		}
		// The driver may keep the output: it is fresh, never scratch, and
		// sized by the last superstep's. What outgrows that is held and
		// copied once its total is known, so the output never regrows.
		out, in, extra := make([]record.Record, 0, t.sinkHint), t.ins[0], 0
		for b, ok := in.next(); ok; b, ok = in.next() {
			if len(t.held) > 0 || len(b) > cap(out)-len(out) {
				t.held, extra = append(t.held, b), extra+len(b)
				continue
			}
			out = append(out, b...)
			in.release(b)
		}
		if len(t.held) > 0 {
			out = append(make([]record.Record, 0, len(out)+extra), out...)
			for i, b := range t.held {
				out = append(out, b...)
				in.release(b)
				t.held[i] = nil
			}
			t.held = t.held[:0]
		}
		t.sess.cur[l.ID][t.part], t.sinkHint = out, len(out)
		return nil

	case dataflow.MapOp:
		t.stream(0, func(r record.Record) {
			t.udf()
			l.Map(r, out)
		})
		return nil

	case dataflow.UnionOp:
		for i := range l.Inputs {
			t.stream(i, func(r record.Record) { out.Emit(r) })
		}
		return nil

	case dataflow.ReduceOp:
		switch n.Local {
		case optimizer.LocalHashAgg:
			if l.Sum && n.Combiner == nil {
				// A declared sum folds its input with the combiner's kernel
				// instead of staging it in a group table: the same additions
				// in arrival order, emitted in the table's group order.
				f := t.combiner(l)
				t.stream(0, f.Emit)
				f.flush(out)
				return nil
			}
			groups := t.buildTable(0, l.Keys[0])
			groups.each(func(k int64, g []record.Record) {
				t.udf()
				l.Reduce(k, g, out)
			})
		case optimizer.LocalSortAgg:
			recs := t.consume(0, l.Keys[0])
			forEachGroup(recs, l.Keys[0], func(k int64, g []record.Record) {
				t.udf()
				l.Reduce(k, g, out)
			})
		default:
			return fmt.Errorf("reduce: unsupported local strategy %s", n.Local)
		}
		return nil

	case dataflow.MatchOp:
		switch n.Local {
		case optimizer.LocalHashJoin:
			return t.hashJoin(out)
		case optimizer.LocalSortMergeJoin:
			return t.sortMergeJoin(out)
		}
		return fmt.Errorf("match: unsupported local strategy %s", n.Local)

	case dataflow.CrossOp:
		build := n.BuildSide
		blk := t.consume(build, nil)
		t.stream(1-build, func(r record.Record) {
			for _, b := range blk {
				t.udf()
				if build == 0 {
					l.Cross(b, r, out)
				} else {
					l.Cross(r, b, out)
				}
			}
		})
		return nil

	case dataflow.SolutionJoin:
		sol := t.e.Solution
		if sol == nil {
			return fmt.Errorf("solution join %q outside an incremental iteration", l.Name)
		}
		var emit dataflow.Emitter = out
		if t.e.DirectMerge {
			// §5.3: under the locality conditions the delta records merge
			// into S immediately (Figure 6 writes the Match output back to
			// the hash table), so later working-set elements in the same
			// superstep observe the update and redundant candidates die
			// here instead of flooding the next working set.
			emit = directMergeEmitter{t: t, sol: sol, next: out}
		}
		t.stream(0, func(r record.Record) {
			s, found := sol.lookup(t.part, l.Keys[0](r))
			t.solAccesses++
			t.udf()
			l.SolJoin(r, s, found, emit)
		})
		return nil

	case dataflow.SolutionCoGroup:
		sol := t.e.Solution
		if sol == nil {
			return fmt.Errorf("solution cogroup %q outside an incremental iteration", l.Name)
		}
		groups := t.buildTable(0, l.Keys[0])
		groups.each(func(k int64, g []record.Record) {
			s, found := sol.lookup(t.part, k)
			t.solAccesses++
			t.udf()
			l.SolCoGroup(k, g, s, found, out)
		})
		return nil
	}
	return fmt.Errorf("runtime: unsupported contract %s", l.Contract)
}

// share is partition part's share of the records Source or IterationInput
// node l emits: a contiguous split of its Data, capped so that nothing
// appends into the next share, or the placeholder partition the driver
// installed.
func (e *Executor) share(l *dataflow.Node, part, par int) record.Batch {
	if l.Contract == dataflow.Source {
		lo, hi := part*len(l.Data)/par, (part+1)*len(l.Data)/par
		return l.Data[lo:hi:hi]
	}
	if parts := e.Placeholder[l.ID]; part < len(parts) {
		return parts[part]
	}
	return nil
}

// hashJoin builds one side into a hash table (reused from the cache if the
// build input is loop-invariant) and streams the other side through it.
func (t *task) hashJoin(out dataflow.Emitter) error {
	l := t.n.Logical
	build := t.n.BuildSide
	table := t.buildTable(build, l.Keys[build])
	probeKey := l.Keys[1-build]
	t.stream(1-build, func(r record.Record) {
		for _, m := range table.get(probeKey(r)) {
			t.udf()
			if build == 0 {
				l.Match(m, r, out)
			} else {
				l.Match(r, m, out)
			}
		}
	})
	return nil
}

// sortMergeJoin sorts both inputs by key and merges equal-key groups.
func (t *task) sortMergeJoin(out dataflow.Emitter) error {
	l := t.n.Logical
	lk, rk := l.Keys[0], l.Keys[1]
	left := t.consume(0, lk)
	right := t.consume(1, rk)
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		ki, kj := lk(left[i]), rk(right[j])
		switch {
		case ki < kj:
			i++
		case ki > kj:
			j++
		default:
			i2 := i
			for i2 < len(left) && lk(left[i2]) == ki {
				i2++
			}
			j2 := j
			for j2 < len(right) && rk(right[j2]) == ki {
				j2++
			}
			for _, lr := range left[i:i2] {
				for _, rr := range right[j:j2] {
					t.udf()
					l.Match(lr, rr, out)
				}
			}
			i, j = i2, j2
		}
	}
	return nil
}

// stream applies f to every input record of input i, replaying the cache
// when the input is loop-invariant and filling it on first execution.
// Non-cached batches are recycled as they are consumed; cached batches are
// retained by the slot.
func (t *task) stream(i int, f func(record.Record)) {
	s := t.slots[i]
	if s == nil {
		t.drain(i, f)
		return
	}
	if !s.filled {
		for b, ok := t.ins[i].next(); ok; b, ok = t.ins[i].next() {
			s.batches = append(s.batches, b)
		}
		s.filled = true
	}
	for _, b := range s.batches {
		for _, r := range b {
			f(r)
		}
	}
}

// consume materializes input i fully (cache-aware), sorted by key unless
// key is nil; the cache stores the sorted order so re-executions skip the
// sort. The non-cached result lives in a per-task scratch buffer that is
// overwritten by the next superstep — callers must not retain it.
func (t *task) consume(i int, key record.KeyFunc) []record.Record {
	if s := t.slots[i]; s != nil {
		if !s.filled {
			s.recs = sortByKey(t.appendAll(i, s.recs), key)
			s.filled = true
		}
		return s.recs
	}
	t.recsBuf[i] = sortByKey(t.appendAll(i, t.recsBuf[i][:0]), key)
	return t.recsBuf[i]
}

// buildTable materializes input i into a key-grouped hash table; for
// loop-invariant inputs the built table itself is cached (§4.3).
// Non-cached tables are rebuilt into the task's persistent group table,
// so steady-state supersteps reuse its storage.
func (t *task) buildTable(i int, key record.KeyFunc) *groupTable {
	if s := t.slots[i]; s != nil {
		if !s.filled {
			gt := newGroupTable()
			t.fillTable(gt, i, key)
			gt.staged, gt.where = nil, nil // built once: drop the build scratch
			gt.renumber()
			s.table = gt
			s.filled = true
		}
		return s.table
	}
	gt := t.scratchTable(i)
	t.fillTable(gt, i, key)
	return gt
}

// fillTable drains input i into gt: the batches are handed to the table
// whole and released once it has laid their records out.
func (t *task) fillTable(gt *groupTable, i int, key record.KeyFunc) {
	in := t.ins[i]
	for b, ok := in.next(); ok; b, ok = in.next() {
		gt.stage(b, key)
	}
	gt.build(in.release)
}

// sortByKey sorts recs by key, then record, in place and returns them; a
// nil key leaves them as they are.
func sortByKey(recs []record.Record, key record.KeyFunc) []record.Record {
	if key != nil {
		sort.Slice(recs, func(a, b int) bool {
			ka, kb := key(recs[a]), key(recs[b])
			if ka != kb {
				return ka < kb
			}
			return record.Less(recs[a], recs[b])
		})
	}
	return recs
}

// forEachGroup iterates key groups of a key-sorted slice.
func forEachGroup(recs []record.Record, key record.KeyFunc, f func(int64, []record.Record)) {
	for i := 0; i < len(recs); {
		k := key(recs[i])
		j := i
		for j < len(recs) && key(recs[j]) == k {
			j++
		}
		f(k, recs[i:j])
		i = j
	}
}
