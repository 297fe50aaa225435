package runtime

import "repro/internal/record"

// probeIndex is the package's one hash index: an open-addressing probe
// table mapping int64 keys to dense positions. slots holds positions into
// the keys slab (probeEmpty, probeTombstone, or an index); a lookup is a
// linear probe from Hash64(k) with no per-entry heap objects, and keys
// stay in insertion order. Callers keep their payload in slabs parallel
// to keys: the solution set's compactIndex stores one record per key, the
// operators' groupTable one group extent per key.
//
// Removal swap-removes from the slab and leaves a tombstone in the probe
// table; tombstones are recycled by inserts and swept by a same-size
// rehash when they pile up.
type probeIndex struct {
	slots []int32 // power-of-two table; probeEmpty, probeTombstone, else index into keys
	keys  []int64
	tombs int // tombstone count in slots
}

const probeMaxLoadNum, probeMaxLoadDen = 3, 4 // grow beyond 75% load

const (
	probeEmpty     = -1
	probeTombstone = -2
)

// reserve sizes the probe table and the key slab for at least n keys.
func (x *probeIndex) reserve(n int) {
	need := 8
	for need*probeMaxLoadNum/probeMaxLoadDen <= n {
		need *= 2
	}
	if need <= len(x.slots) {
		return
	}
	x.rehash(need)
	if cap(x.keys) < n {
		keys := make([]int64, len(x.keys), n)
		copy(keys, x.keys)
		x.keys = keys
	}
}

// rehash rebuilds the probe table at the given power-of-two size. Rebuilt
// tables have no tombstones.
func (x *probeIndex) rehash(size int) {
	if cap(x.slots) >= size {
		x.slots = x.slots[:size]
	} else {
		x.slots = make([]int32, size)
	}
	x.tombs = 0
	for i := range x.slots {
		x.slots[i] = probeEmpty
	}
	mask := uint64(size - 1)
	for i, k := range x.keys {
		j := record.Hash64(k) & mask
		for x.slots[j] >= 0 {
			j = (j + 1) & mask
		}
		x.slots[j] = int32(i)
	}
}

// find returns key k's position in the slab, or -1.
func (x *probeIndex) find(k int64) int32 {
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
	if len(x.slots) == 0 || (len(x.keys)+x.tombs+1)*probeMaxLoadDen > len(x.slots)*probeMaxLoadNum {
		size := len(x.slots) * 2
		if size < 8 {
			size = 8
		}
		x.rehash(size)
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
// caller mirrors that move in its parallel slabs) and the vacated probe
// slot becomes a tombstone; when tombstones exceed a quarter of the table
// a same-size rehash sweeps them out.
func (x *probeIndex) remove(k int64) int32 {
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

// clear empties the index, keeping the storage.
func (x *probeIndex) clear() {
	x.keys = x.keys[:0]
	x.tombs = 0
	for i := range x.slots {
		x.slots[i] = probeEmpty
	}
}
