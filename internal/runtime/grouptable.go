package runtime

import (
	"slices"

	"repro/internal/record"
)

// groupTable is the key-grouped hash table behind every grouping operator:
// hash aggregation, hash-join build sides (including the cached
// constant-path table) and SolutionCoGroup. (Combiners do not group: they
// fold on arrival, see combineFold.)
//
// Layout. All records of a round live in one flat array, recs, ordered by
// group: a key's group is the extent recs[start:end] recorded beside the
// key in the probeIndex's slab order. There is no per-key slice and no
// per-key allocation. A round is built in two passes:
//
//  1. stage retains each drained batch and counts the records per key,
//     remembering each record's key position so a key is hashed once;
//  2. build puts the round's keys in order (probeIndex.keyOrder), turns
//     the counts into extents in that order, sizes recs (reusing it),
//     scatters the staged records into their extents and releases the
//     batches.
//
// The order contract. Groups appear, in recs and to each, in ascending
// key order when the round is dense over a direct index (it holds at
// least 1/probeDirectSpread of the index's slots), and in first-touch
// order otherwise. The scatter is stable, so records inside a group are
// always in arrival order — the order of an append-per-key table, which
// keeps float reductions over one group byte-identical. A cached table's
// slab is renumbered in group order after its build (renumber), so a probe
// stream in key order reads one over vertex ids front to back.
//
// Rounds. The storage survives across supersteps. reset is O(1): it bumps
// a round counter, and a key's extent is valid only if its stamp matches.
// Keys that do not reappear stay in the index but invisible, so repeated
// supersteps over a recurring key domain — the common iterative case —
// allocate nothing, and a small round after a large one pays for the
// records it holds, not for the capacity it inherited.
//
// Patches. A cached table is built once and never reset; remove and add
// edit it in place between supersteps instead (Executor.PatchSource).
// They leave dead slots in recs — see dead — that compactIfSparse
// reclaims.
type groupTable struct {
	idx     probeIndex
	ext     []groupExtent // parallel to idx.keys
	touched []int32       // key positions live in this round, in group order
	recs    []record.Record
	round   uint64

	// Build scratch, empty outside stage…build.
	staged []record.Batch
	where  []int32 // key position of every staged record, in arrival order

	// dead counts the slots of recs no group covers, left behind by
	// patches (only a cached table, never reset, is patched).
	dead int
}

// groupExtent locates one key's group in recs. Between stage and build,
// end counts the key's staged records instead.
type groupExtent struct {
	stamp      uint64
	start, end int32
}

func newGroupTable() *groupTable {
	return &groupTable{round: 1}
}

// reset starts a new round; existing groups become invisible until their
// key is staged again.
func (g *groupTable) reset() {
	g.round++
	g.touched = g.touched[:0]
	g.recs = g.recs[:0]
	// A round abandoned between stage and build (a task that failed
	// mid-drain) leaves its scratch behind; those batches go to the GC.
	clear(g.staged)
	g.staged = g.staged[:0]
	g.where = g.where[:0]
}

// stage takes ownership of batch b for the round being built and counts
// its records per key.
func (g *groupTable) stage(b record.Batch, key record.KeyFunc) {
	g.staged = append(g.staged, b)
	g.where = slices.Grow(g.where, len(b)) // one step for a whole borrowed share
	for _, r := range b {
		pos, added := g.idx.insert(key(r))
		if added {
			g.ext = append(g.ext, groupExtent{})
		}
		e := &g.ext[pos]
		if e.stamp != g.round {
			e.stamp, e.end = g.round, 0
			g.touched = append(g.touched, pos)
		}
		e.end++
		g.where = append(g.where, pos)
	}
}

// build lays the staged records out by group and hands the batches to
// release. The table is readable afterwards.
func (g *groupTable) build(release func(record.Batch)) {
	g.idx.keyOrder(g.touched)
	total := int32(0)
	for _, pos := range g.touched {
		e := &g.ext[pos]
		n := e.end
		e.start, e.end = total, total // end is the scatter cursor
		total += n
	}
	if cap(g.recs) < int(total) {
		g.recs = make([]record.Record, total)
	} else {
		g.recs = g.recs[:total]
	}
	i := 0
	for bi, b := range g.staged {
		for _, r := range b {
			e := &g.ext[g.where[i]]
			g.recs[e.end] = r
			e.end++
			i++
		}
		release(b)
		g.staged[bi] = nil
	}
	g.staged = g.staged[:0]
	g.where = g.where[:0]
}

// renumber makes key position i the round's i-th group, so a probe stream
// in key order reads slots, ext and recs front to back. Only a direct
// index's group order can differ from its slab's (first-touch) order, and
// only a fresh build (a cached table's) holds every key of the index.
func (g *groupTable) renumber() {
	if !g.idx.direct || len(g.touched) != len(g.idx.keys) {
		return
	}
	keys, ext := make([]int64, len(g.touched)), make([]groupExtent, len(g.touched))
	for i, pos := range g.touched {
		keys[i], ext[i] = g.idx.keys[pos], g.ext[pos]
		g.idx.slots[keys[i]] = int32(i)
		g.touched[i] = int32(i)
	}
	g.idx.keys, g.ext = keys, ext
}

// get returns key k's group in the current round, or nil.
func (g *groupTable) get(k int64) []record.Record {
	pos := g.idx.find(k)
	if pos < 0 {
		return nil
	}
	e := &g.ext[pos]
	if e.stamp != g.round {
		return nil
	}
	return g.recs[e.start:e.end:e.end]
}

// each visits every group of the current round in the order build laid
// them out (see the order contract), then any a patch added.
func (g *groupTable) each(f func(k int64, recs []record.Record)) {
	for _, pos := range g.touched {
		e := &g.ext[pos]
		f(g.idx.keys[pos], g.recs[e.start:e.end:e.end])
	}
}

// size returns the number of records stored in the current round.
func (g *groupTable) size() int { return len(g.recs) }

// live returns the number of records the groups hold: size less the slots
// patches left dead.
func (g *groupTable) live() int { return len(g.recs) - g.dead }

// remove deletes one record equal to r from key k's group by swapping the
// group's last record into its place, reporting whether r was there. The
// group's vacated last slot goes dead.
func (g *groupTable) remove(k int64, r record.Record) bool {
	pos := g.idx.find(k)
	if pos < 0 || g.ext[pos].stamp != g.round {
		return false
	}
	e := &g.ext[pos]
	for i := e.start; i < e.end; i++ {
		if g.recs[i] == r {
			e.end--
			g.recs[i] = g.recs[e.end]
			g.dead++
			return true
		}
	}
	return false
}

// add appends r to key k's group. A group that does not already end recs
// moves there with r appended — groups are relocated, never grown in
// place — and its old extent goes dead.
func (g *groupTable) add(k int64, r record.Record) {
	pos, added := g.idx.insert(k)
	if added {
		g.ext = append(g.ext, groupExtent{})
	}
	e := &g.ext[pos]
	n := int32(len(g.recs))
	switch {
	case e.stamp != g.round:
		*e = groupExtent{stamp: g.round, start: n, end: n}
		g.touched = append(g.touched, pos)
	case e.end != n:
		g.recs = append(g.recs, g.recs[e.start:e.end]...)
		g.dead += int(e.end - e.start)
		e.start, e.end = n, int32(len(g.recs))
	}
	g.recs = append(g.recs, r)
	e.end++
}

// compactIfSparse rewrites recs without its dead slots once they outnumber
// the live records, so patching costs amortized O(1) per record and recs
// stays within twice the live size. Groups keep their order;
// a group patched empty disappears, as it would from a fresh build.
func (g *groupTable) compactIfSparse() {
	if g.dead <= g.live() {
		return
	}
	recs := make([]record.Record, 0, g.live())
	touched := g.touched[:0]
	for _, pos := range g.touched {
		e := &g.ext[pos]
		if e.start == e.end {
			e.stamp = 0
			continue
		}
		start := int32(len(recs))
		recs = append(recs, g.recs[e.start:e.end]...)
		e.start, e.end = start, int32(len(recs))
		touched = append(touched, pos)
	}
	g.recs, g.touched, g.dead = recs, touched, 0
}
