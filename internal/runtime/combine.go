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
// The fold contract. The first record of a key in a round becomes the
// key's accumulator. Each later record calls the combine UDF with the
// group (accumulator, record), and the one record the call emits becomes
// the new accumulator — the pairwise form of the associative, commutative
// UDF dataflow.Node.Combinable promises. When the input ends, every key
// gets one final call with its accumulator alone, and that call writes to
// the combiner's output. The final calls follow groupTable's order
// contract: ascending key order when the round is dense over a direct
// index (probeIndex.keyOrder), first-touch order otherwise — so a fold
// over vertex ids emits in vertex order.
//
// A call that emits zero records or several moves its key to a cold path
// for the rest of the round: the key's pending records are exactly what
// the call emitted, the next arrival is folded with all of them (or, if
// there are none, becomes the pending record on its own), and the final
// call gets all of them. A key left with nothing pending gets no final
// call. No record the UDF emits is dropped.
//
// Rounds. Like groupTable, the storage survives across supersteps: each
// task run bumps a round stamp (task.combiner), and an accumulator is
// live only if its stamp matches, so a recurring key domain folds with no
// allocation.
type combineFold struct {
	t   *task // for the UDF tally; nil when no task runs the fold
	fn  dataflow.ReduceFn
	key record.KeyFunc

	idx     probeIndex
	accs    []foldAcc // parallel to idx.keys
	touched []int32   // key positions folded this round, first-touch order until flush
	round   uint64

	// cold holds the pending records of keys off the one-record path,
	// reused across rounds; the first ncold lists are this round's.
	cold  [][]record.Record
	ncold int

	pair [2]record.Record // argument scratch of the one-record path
	out  []record.Record  // what the current call emitted

	// Emit writes pair and out on every record, and neighbouring folds
	// (Executor.seedFolds) run on different goroutines: the pad makes the
	// size a multiple of the 64-B cache line, so no two folds share one.
	_ [48]byte
}

// foldAcc is one key's fold state in the round stamped on it.
type foldAcc struct {
	stamp uint64
	rec   record.Record // the accumulator, when cold < 0
	cold  int32         // index into cold, or -1 on the one-record path
}

// combiner returns the task's fold, reset for a new round of l.
func (t *task) combiner(l *dataflow.Node) *combineFold {
	if t.fold == nil {
		t.fold = &combineFold{t: t}
	}
	t.fold.reset(l)
	return t.fold
}

// reset starts a new round of the combine UDF of the combinable Reduce l
// (its Combine UDF, else its Reduce UDF).
func (f *combineFold) reset(l *dataflow.Node) {
	f.fn = l.Combine
	if f.fn == nil {
		f.fn = l.Reduce
	}
	f.key = l.Keys[0]
	f.round++
	f.touched = f.touched[:0]
	f.ncold = 0
}

// Emit folds r into its key's accumulator; it is the emitter a fused
// producer's output flows into.
func (f *combineFold) Emit(r record.Record) {
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

// foldCold is Emit for a key on the cold path.
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

// flush makes each key's final call into out, in the contract's order.
func (f *combineFold) flush(out dataflow.Emitter) {
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

// tally counts one combine call against the task running the fold.
func (f *combineFold) tally() {
	if f.t != nil {
		f.t.udf()
	}
}
