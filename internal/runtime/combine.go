package runtime

import (
	"repro/internal/dataflow"
	"repro/internal/record"
)

// combineFold is the running pre-aggregation behind every combiner: a
// standalone RoleCombiner task feeds it its drained input, and a node that
// absorbed a combiner (optimizer.PhysNode.Combiner) feeds it every record
// its emitter produces. Nothing is staged: each record is folded into its
// key's accumulator as it arrives, so a pooled input batch goes back to
// the pool as soon as it has been read.
//
// Kernels. A Reduce that declares its aggregate folds with a typed kernel
// and calls no UDF: a declared sum (dataflow.Node.Sum) keeps acc = x1,
// then acc += x, and emits {A: key, X: dataflow.SumResult(acc)}; a
// keep-the-better fold
// (dataflow.Node.Better) keeps acc = r whenever Better(r, acc) > 0 and
// emits acc as is. Either way a key's first record of a round becomes its
// accumulator, so a kernel computes what the general fold below computes
// with the declaration's derived UDF, bit for bit and in the same order.
// A kernel's accumulator lives in two columns — a uint32 stamp and the
// value (12 B per key for the sum) — indexed by key while the index is
// direct (probeIndex's density rule: the columns are as long as its
// table), and by probe position otherwise, so sparse and negative keys
// fold too. On the direct path a record costs one bounds check, one stamp
// load and the fold itself: no probe, and no touched entry after a key's
// first record of the round.
//
// The general fold contract, for any other combinable Reduce. The first
// record of a key in a round becomes the key's accumulator. Each later
// record calls the combine UDF with the group (accumulator, record), and
// the one record the call emits becomes the new accumulator — the
// pairwise form of the associative, commutative UDF
// dataflow.Node.Combinable promises. When the input ends, every key gets
// one final call with its accumulator alone, and that call writes to the
// combiner's output.
//
// A call that emits zero records or several moves its key to a cold path
// for the rest of the round: the key's pending records are exactly what
// the call emitted, the next arrival is folded with all of them (or, if
// there are none, becomes the pending record on its own), and the final
// call gets all of them. A key left with nothing pending gets no final
// call. No record the UDF emits is dropped.
//
// Order. Kernels and the general fold emit in groupTable's order: ascending
// key order when the round is dense over a direct index
// (probeIndex.keyOrder; a kernel scans its stamps in key order), first-touch
// order otherwise — so a fold over vertex ids emits in vertex order.
//
// Rounds. Like groupTable, the storage survives across supersteps: each
// task run bumps a round stamp (task.combiner), and an accumulator is
// live only if its stamp matches, so a recurring key domain folds with no
// allocation. The stamp is 32 bits, so that a general accumulator is 32
// bytes, half a cache line; when the round counter wraps, every stamp is
// cleared and round 0, the stamp of a never-used accumulator, is skipped.
type combineFold struct {
	t      *task // for the UDF tally; nil when no task runs the fold
	kind   foldKind
	fn     dataflow.ReduceFn
	better record.Comparator
	key    record.KeyFunc

	idx probeIndex
	// touched lists the round's keys in first-touch order until flush:
	// key positions for the general fold, column indexes for a kernel.
	touched []int32
	round   uint32

	// The general fold: accs is parallel to idx.keys; cold holds the
	// pending records of keys off the one-record path, reused across
	// rounds (the first ncold lists are this round's).
	accs  []foldAcc
	cold  [][]record.Record
	ncold int
	pair  [2]record.Record // argument scratch of the one-record path
	out   []record.Record  // what the current call emitted

	// A kernel's columns: indexed by key when byKey (then idx is direct and
	// they are as long as its table), by probe position otherwise. Only
	// the kind's value column is used.
	byKey  bool
	stamps []uint32
	sums   []float64       // foldSum
	bests  []record.Record // foldBest

	// Emit writes the columns and scratch on every record, and
	// neighbouring folds (Executor.seedFolds) run on different goroutines:
	// the fields add up to a multiple of the 64-B cache line
	// (TestCacheLinePadding), so no two folds share one.
	_ [32]byte
}

// foldKind is how a combineFold folds: the general UDF fold or a kernel.
type foldKind uint8

const (
	foldUDF  foldKind = iota
	foldSum           // dataflow.Node.Sum
	foldBest          // dataflow.Node.Better
)

// kindOf returns the fold the combinable Reduce l declares.
func kindOf(l *dataflow.Node) foldKind {
	switch {
	case l.Sum:
		return foldSum
	case l.Better != nil:
		return foldBest
	}
	return foldUDF
}

// foldAcc is one key's general fold state in the round stamped on it.
type foldAcc struct {
	stamp uint32
	cold  int32         // index into cold, or -1 on the one-record path
	rec   record.Record // the accumulator, when cold < 0
}

// combiner returns the task's fold, reset for a new round of l.
func (t *task) combiner(l *dataflow.Node) *combineFold {
	if t.fold == nil {
		t.fold = &combineFold{t: t}
	}
	t.fold.reset(l)
	return t.fold
}

// reset starts a new round of the combinable Reduce l. A fold asked to
// fold another kind than its last round's starts over empty.
func (f *combineFold) reset(l *dataflow.Node) {
	if k := kindOf(l); k != f.kind {
		*f = combineFold{t: f.t, kind: k}
	}
	f.fn, f.better, f.key = l.Reduce, l.Better, l.Keys[0]
	if f.round++; f.round == 0 {
		for i := range f.accs {
			f.accs[i].stamp = 0
		}
		clear(f.stamps)
		f.round = 1
	}
	f.touched = f.touched[:0]
	f.ncold = 0
}

// Emit folds r into its key's accumulator; it is the emitter a fused
// producer's output flows into.
func (f *combineFold) Emit(r record.Record) {
	switch f.kind {
	case foldSum:
		// The sum's key is A by declaration. The direct path is written
		// out here: a live key is a stamp load and an add.
		k := r.A
		if f.byKey && uint64(k) < uint64(len(f.stamps)) && f.stamps[k] == f.round {
			f.sums[k] += r.X
			return
		}
		if c, first := f.column(k); first {
			f.sums[c] = r.X
		} else {
			f.sums[c] += r.X
		}
	case foldBest:
		if c, first := f.column(f.key(r)); first || f.better(r, f.bests[c]) > 0 {
			f.bests[c] = r
		}
	default:
		f.emitUDF(r)
	}
}

// column returns key k's column index and whether this is k's first
// record of the round, in which case it stamps k and touches it.
func (f *combineFold) column(k int64) (c int32, first bool) {
	if f.byKey && uint64(k) < uint64(len(f.stamps)) {
		s := f.stamps[k]
		if s == f.round {
			return int32(k), false
		}
		// Only a key the index holds has a stamp, and only a round wrap
		// clears one, so a stamped key needs no look at the index.
		if s != 0 || f.idx.slots[k] >= 0 {
			return f.touch(int32(k)), true
		}
	}
	if c = f.insert(k); f.stamps[c] == f.round {
		return c, false
	}
	return f.touch(c), true
}

// touch stamps column c with the round and lists it as touched.
func (f *combineFold) touch(c int32) int32 {
	f.stamps[c] = f.round
	f.touched = append(f.touched, c)
	return c
}

// insert returns key k's column index the slow way: through the index,
// inserting k if it is new. When that switches the index's mode or grows
// its direct table, the columns are laid out anew; a new hashed key gets
// a fresh column entry.
func (f *combineFold) insert(k int64) int32 {
	pos, added := f.idx.insert(k)
	switch {
	case f.byKey != f.idx.direct || f.byKey && len(f.stamps) != len(f.idx.slots):
		f.relayout()
	case added && !f.byKey:
		f.stamps = append(f.stamps, 0)
		if f.kind == foldSum {
			f.sums = append(f.sums, 0)
		} else {
			f.bests = append(f.bests, record.Record{})
		}
	}
	if f.byKey {
		return int32(k)
	}
	return pos
}

// relayout moves the kernel's columns (and touched) to the index's current
// mode: by key over its direct table, or by probe position. Positions do
// not move when the index switches, so every key's entry is found where
// the old layout kept it; a key the old layout had no entry for (the one
// whose insert caused the switch) starts unstamped.
func (f *combineFold) relayout() {
	from, to := f.byKey, f.idx.direct
	n := len(f.idx.keys)
	if to {
		n = len(f.idx.slots)
	}
	for i, c := range f.touched {
		k := int64(c)
		if !from {
			k = f.idx.keys[c]
		}
		if to {
			f.touched[i] = int32(k)
		} else {
			f.touched[i] = f.idx.find(k)
		}
	}
	keys := f.idx.keys
	f.stamps = moveColumn(f.stamps, n, keys, from, to)
	if f.kind == foldSum {
		f.sums = moveColumn(f.sums, n, keys, from, to)
	} else {
		f.bests = moveColumn(f.bests, n, keys, from, to)
	}
	f.byKey = to
}

// moveColumn returns col laid out anew as n entries: the entry of each key
// keys[pos] moves from index keys[pos] (fromKey) or pos to index keys[pos]
// (toKey) or pos. Entries col does not hold stay zero.
func moveColumn[V any](col []V, n int, keys []int64, fromKey, toKey bool) []V {
	out := make([]V, n)
	for pos, k := range keys {
		src, dst := int64(pos), int64(pos)
		if fromKey {
			src = k
		}
		if toKey {
			dst = k
		}
		if uint64(src) < uint64(len(col)) {
			out[dst] = col[src]
		}
	}
	return out
}

// emitUDF is Emit for the general fold.
func (f *combineFold) emitUDF(r record.Record) {
	k := f.key(r)
	pos, added := f.idx.insert(k)
	if added {
		f.accs = append(f.accs, foldAcc{})
	}
	a := &f.accs[pos]
	if a.stamp != f.round {
		*a = foldAcc{stamp: f.round, rec: r, cold: -1}
		f.touched = append(f.touched, pos)
		return
	}
	if a.cold >= 0 {
		f.foldCold(k, a.cold, r)
		return
	}
	f.pair[0], f.pair[1] = a.rec, r
	f.call(k, f.pair[:])
	if len(f.out) == 1 {
		a.rec = f.out[0]
		return
	}
	if f.ncold == len(f.cold) {
		f.cold = append(f.cold, nil)
	}
	a.cold = int32(f.ncold)
	f.cold[f.ncold] = append(f.cold[f.ncold][:0], f.out...)
	f.ncold++
}

// foldCold is emitUDF for a key on the cold path.
func (f *combineFold) foldCold(k int64, i int32, r record.Record) {
	pending := append(f.cold[i], r)
	if len(pending) > 1 {
		f.call(k, pending)
		pending = append(pending[:0], f.out...)
	}
	f.cold[i] = pending
}

// call runs the combine UDF on one group, collecting its output in out.
func (f *combineFold) call(k int64, g []record.Record) {
	f.out = f.out[:0]
	f.tally()
	f.fn(k, g, emitCollector{buf: &f.out})
}

// flush writes each key's result of the round to out, in the contract's
// order: a kernel's accumulator, or the general fold's final call.
func (f *combineFold) flush(out dataflow.Emitter) {
	if f.kind != foldUDF {
		f.flushKernel(out)
		return
	}
	f.idx.keyOrder(f.touched)
	for _, pos := range f.touched {
		a := &f.accs[pos]
		g := f.pair[:1]
		if a.cold < 0 {
			g[0] = a.rec
		} else if g = f.cold[a.cold]; len(g) == 0 {
			continue
		}
		f.tally()
		f.fn(f.idx.keys[pos], g, out)
	}
}

// flushKernel is flush for a kernel. A round dense over the direct table
// (keyOrder's bound) is its stamped columns, scanned in key order.
func (f *combineFold) flushKernel(out dataflow.Emitter) {
	if f.byKey && len(f.touched)*probeDirectSpread >= len(f.stamps) {
		for k, s := range f.stamps {
			if s == f.round {
				f.emitColumn(out, int32(k))
			}
		}
		return
	}
	for _, c := range f.touched {
		f.emitColumn(out, c)
	}
}

// emitColumn writes the accumulator in column c.
func (f *combineFold) emitColumn(out dataflow.Emitter, c int32) {
	if f.kind == foldBest {
		out.Emit(f.bests[c])
		return
	}
	k := int64(c)
	if !f.byKey {
		k = f.idx.keys[c]
	}
	out.Emit(record.Record{A: k, X: dataflow.SumResult(f.sums[c])})
}

// tally counts one combine call against the task running the fold.
func (f *combineFold) tally() {
	if f.t != nil {
		f.t.udf()
	}
}
