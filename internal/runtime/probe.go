package runtime

import "repro/internal/record"

// probeIndex is the package's one hash index: it maps int64 keys to dense
// positions in the keys slab, which holds the keys in insertion order.
// Callers keep their payload in slabs parallel to keys: the solution set's
// compactIndex stores one record per key, the operators' groupTable one
// group extent per key, combineFold one accumulator per key. slots maps a
// key to its position (or probeEmpty) in one of two modes:
//
//   - hashed: slots is an open-addressing table probed linearly from
//     Hash64(k); removal leaves a tombstone, recycled by inserts and swept
//     by a same-size rehash when tombstones pile up.
//   - direct: slots is indexed by the key itself, so a lookup is a bounds
//     check and one load, with no hash, no probe and no key compare.
//     Removal empties the key's slot (no tombstones), and clear empties
//     only the slots of the keys it holds.
//
// The mode follows the keys with no knob. While hashed, the index keeps
// a running max of the keys (a negative key reads as larger than any);
// when the key count reaches a power of two of at least probeDirectMin
// and every key is below probeDirectSpread times the count, it switches
// to direct. While direct, a key inside the table is always placed
// directly; a key past it grows the table if it is below
// probeDirectSpread times the count and switches back to hashed if not
// (so does any negative key). Each switch rebuilds slots from the slab in
// time linear in the key count and is rare — a switch to direct is tried
// only at a power-of-two count, a direct table grows by doubling, and a
// switch back needs a key outside the direct range — so both modes stay
// amortised O(1). The slab order is the same in either mode.
//
// Order. A caller that visits one round's keys — groupTable's groups,
// combineFold's final calls — keeps their slab positions in a touched
// list, in first-touch order, and passes it through keyOrder before it
// lays out or emits anything. keyOrder puts a dense round of a direct
// index (at least 1/probeDirectSpread of the table's slots) in ascending
// key order; every other round keeps first-touch order. So a dense round
// over vertex ids comes out in vertex order whatever order it arrived
// in, and whoever reads it next — a join probing a cached table built
// the same way, say — walks memory in order instead of at random.
type probeIndex struct {
	slots  []int32 // hashed: power-of-two probe table; direct: indexed by key
	keys   []int64
	tombs  int    // tombstone count in slots; always 0 when direct
	maxKey uint64 // running max of uint64(k) over the keys since clear
	direct bool
}

const probeMaxLoadNum, probeMaxLoadDen = 3, 4 // grow beyond 75% load

const (
	probeEmpty     = -1
	probeTombstone = -2
)

const (
	probeDirectMin    = 64 // smallest key count at which direct mode is tried
	probeDirectSpread = 4  // direct while every key < spread × the key count
)

// hashedSize returns the probe-table size that holds n keys under the
// load limit.
func hashedSize(n int) int {
	size := 8
	for size*probeMaxLoadNum/probeMaxLoadDen <= n {
		size *= 2
	}
	return size
}

// reserve sizes the index and the key slab for at least n keys. A direct
// table grows with its keys, so only the slab is sized then.
func (x *probeIndex) reserve(n int) {
	if size := hashedSize(n); !x.direct && size > len(x.slots) {
		x.rehash(size)
	}
	if cap(x.keys) < n {
		keys := make([]int64, len(x.keys), n)
		copy(keys, x.keys)
		x.keys = keys
	}
}

// emptySlots resizes slots to size, every slot empty, reusing its storage
// when it is large enough.
func (x *probeIndex) emptySlots(size int) {
	if cap(x.slots) >= size {
		x.slots = x.slots[:size]
	} else {
		x.slots = make([]int32, size)
	}
	for i := range x.slots {
		x.slots[i] = probeEmpty
	}
	x.tombs = 0
}

// rehash rebuilds slots as a hashed table of the given power-of-two size.
// Rebuilt tables have no tombstones.
func (x *probeIndex) rehash(size int) {
	x.direct = false
	x.emptySlots(size)
	mask := uint64(size - 1)
	for i, k := range x.keys {
		j := record.Hash64(k) & mask
		for x.slots[j] >= 0 {
			j = (j + 1) & mask
		}
		x.slots[j] = int32(i)
	}
}

// toDirect rebuilds slots as a direct table over the keys, which must lie
// in [0, top]: the smallest power of two (at least probeDirectMin) past
// top, so a table grown key by key doubles.
func (x *probeIndex) toDirect(top uint64) {
	size := probeDirectMin
	for uint64(size) <= top {
		size *= 2
	}
	x.direct = true
	x.emptySlots(size)
	for i, k := range x.keys {
		x.slots[k] = int32(i)
	}
}

// find returns key k's position in the slab, or -1. The direct lookup is
// small enough to inline into callers; the rest is findSlow.
func (x *probeIndex) find(k int64) int32 {
	if x.direct && uint64(k) < uint64(len(x.slots)) {
		return x.slots[k] // probeEmpty is -1
	}
	return x.findSlow(k)
}

// findSlow is find past the direct fast path.
func (x *probeIndex) findSlow(k int64) int32 {
	if x.direct || len(x.slots) == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	j := record.Hash64(k) & mask
	for {
		s := x.slots[j]
		if s == probeEmpty {
			return -1
		}
		if s >= 0 && x.keys[s] == k {
			return s
		}
		j = (j + 1) & mask
	}
}

// insert returns key k's position, appending k to the slab if it is new
// (added reports which). Tombstoned slots are recycled for new keys, but
// probing continues past them so an existing key further down its chain
// is still found.
func (x *probeIndex) insert(k int64) (pos int32, added bool) {
	if x.direct {
		if uint64(k) < uint64(len(x.slots)) {
			if s := x.slots[k]; s >= 0 {
				return s, false
			}
			pos = int32(len(x.keys))
			x.slots[k] = pos
			x.keys = append(x.keys, k)
			x.maxKey = max(x.maxKey, uint64(k))
			return pos, true
		}
		if n := len(x.keys) + 1; uint64(k) < uint64(probeDirectSpread*n) {
			x.toDirect(uint64(k))
			return x.insert(k)
		}
		x.rehash(hashedSize(len(x.keys) + 1))
	}
	if len(x.slots) == 0 || (len(x.keys)+x.tombs+1)*probeMaxLoadDen > len(x.slots)*probeMaxLoadNum {
		x.rehash(max(len(x.slots)*2, 8))
	}
	mask := uint64(len(x.slots) - 1)
	j := record.Hash64(k) & mask
	reuse := -1 // first tombstone on the probe path, reusable on insert
	for {
		s := x.slots[j]
		if s == probeEmpty {
			if reuse >= 0 {
				j = uint64(reuse)
				x.tombs--
			}
			pos = int32(len(x.keys))
			x.slots[j] = pos
			x.keys = append(x.keys, k)
			x.maxKey = max(x.maxKey, uint64(k))
			if n := len(x.keys); n >= probeDirectMin && n&(n-1) == 0 && x.maxKey < uint64(probeDirectSpread*n) {
				x.toDirect(x.maxKey)
			}
			return pos, true
		}
		if s == probeTombstone {
			if reuse < 0 {
				reuse = int(j)
			}
		} else if x.keys[s] == k {
			return s, false
		}
		j = (j + 1) & mask
	}
}

// remove deletes key k and returns the position it vacated, or -1 if k
// was absent. The slab's last key moves into the vacated position (the
// caller mirrors that move in its parallel slabs). A hashed table leaves a
// tombstone in the vacated probe slot; when tombstones exceed a quarter of
// the table a same-size rehash sweeps them out.
func (x *probeIndex) remove(k int64) int32 {
	if x.direct {
		s := x.find(k)
		if s < 0 {
			return -1
		}
		last := len(x.keys) - 1
		if int(s) != last {
			lk := x.keys[last]
			x.slots[lk] = s
			x.keys[s] = lk
		}
		x.keys = x.keys[:last]
		x.slots[k] = probeEmpty
		return s
	}
	if len(x.slots) == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	j := record.Hash64(k) & mask
	for {
		s := x.slots[j]
		if s == probeEmpty {
			return -1
		}
		if s >= 0 && x.keys[s] == k {
			last := len(x.keys) - 1
			if int(s) != last {
				// Repoint the probe slot that referenced the last key
				// (keys are unique, so the probe from its hash finds
				// exactly one slot holding last).
				lk := x.keys[last]
				jj := record.Hash64(lk) & mask
				for x.slots[jj] != int32(last) {
					jj = (jj + 1) & mask
				}
				x.slots[jj] = s
				x.keys[s] = lk
			}
			x.keys = x.keys[:last]
			x.slots[j] = probeTombstone
			x.tombs++
			if x.tombs*4 > len(x.slots) {
				x.rehash(len(x.slots))
			}
			return s
		}
		j = (j + 1) & mask
	}
}

// keyOrder rewrites touched — the slab positions of one round's keys,
// each at most once — into ascending key order when the index is direct
// and the round holds at least 1/probeDirectSpread of its slots, and
// leaves it in first-touch order otherwise. A round that holds every key
// of the index is the table's occupied slots, read in order. Otherwise it
// marks each touched key's slot first (a position pos reads as -3-pos,
// below probeEmpty and the tombstone a direct table never holds), and the
// scan collects and unmarks the marked slots. Either way it is linear in
// the table, which the density bound keeps within probeDirectSpread times
// the round.
func (x *probeIndex) keyOrder(touched []int32) {
	if !x.direct || len(touched)*probeDirectSpread < len(x.slots) {
		return
	}
	if len(touched) == len(x.keys) {
		j := 0
		for _, s := range x.slots {
			if s >= 0 {
				touched[j] = s
				j++
			}
		}
		return
	}
	for _, pos := range touched {
		x.slots[x.keys[pos]] = -3 - pos
	}
	j := 0
	for k, s := range x.slots {
		if s <= -3 {
			pos := -3 - s
			x.slots[k] = pos
			touched[j] = pos
			j++
		}
	}
}

// clear empties the index, keeping the storage and the mode. A direct
// table empties only the slots of the keys it holds.
func (x *probeIndex) clear() {
	if x.direct {
		for _, k := range x.keys {
			x.slots[k] = probeEmpty
		}
	} else {
		for i := range x.slots {
			x.slots[i] = probeEmpty
		}
	}
	x.keys, x.tombs, x.maxKey = x.keys[:0], 0, 0
}
