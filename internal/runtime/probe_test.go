package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/optimizer"
	"repro/internal/record"
)

// probeModel is the reference for probeIndex: a map from key to slab
// position and the slab itself, with the same append and swap-remove
// rules.
type probeModel struct {
	pos  map[int64]int32
	keys []int64
}

func (m *probeModel) insert(k int64) (int32, bool) {
	if p, ok := m.pos[k]; ok {
		return p, false
	}
	p := int32(len(m.keys))
	m.pos[k] = p
	m.keys = append(m.keys, k)
	return p, true
}

func (m *probeModel) remove(k int64) int32 {
	p, ok := m.pos[k]
	if !ok {
		return -1
	}
	last := len(m.keys) - 1
	lk := m.keys[last]
	m.keys[p] = lk
	m.pos[lk] = p
	m.keys = m.keys[:last]
	delete(m.pos, k)
	return p
}

// TestProbeIndexModes runs random insert/find/remove/clear streams against
// probeModel and requires identical positions and slab order in both
// modes, counting the hashed↔direct switches each stream crosses. The
// streams: a dense domain growing from 0; the keys a hash partition of
// such a domain holds at 2 and 4 partitions; sparse int64 keys; dense
// keys with rare negative ones; and dense keys that jump to 1<<40 and,
// after a clear, come back.
func TestProbeIndexModes(t *testing.T) {
	dense := func(rng *rand.Rand, i int) int64 { return rng.Int63n(int64(64 + i/8)) }
	partition := func(p int) func(*rand.Rand, int) int64 {
		return func(rng *rand.Rand, i int) int64 {
			for {
				if k := rng.Int63n(int64(p * (64 + i/8))); record.PartitionOf(k, p) == 0 {
					return k
				}
			}
		}
	}
	streams := []struct {
		name        string
		key         func(rng *rand.Rand, i int) int64
		clearEvery  int
		minSwitches int // -1: only counted
		maxSwitches int
	}{
		{"dense", dense, 0, 1, 1},
		{"half", partition(2), 0, 1, 1},
		{"quarter", partition(4), 0, -1, -1},
		{"sparse", func(rng *rand.Rand, i int) int64 { return int64(rng.Uint64()) }, 0, 0, 0},
		{"negative", func(rng *rand.Rand, i int) int64 {
			if rng.Intn(400) == 0 {
				return -rng.Int63n(1000) - 1
			}
			return dense(rng, i)
		}, 2500, 2, -1},
		{"jump", func(rng *rand.Rand, i int) int64 {
			if i%2500 >= 1500 && rng.Intn(50) == 0 {
				return 1<<40 + rng.Int63n(64)
			}
			return dense(rng, i%2500)
		}, 2500, 4, -1},
	}
	total := map[bool]int{}
	for si, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(si) + 1))
			var x probeIndex
			m := probeModel{pos: map[int64]int32{}}
			switches := 0
			check := func(i int) {
				t.Helper()
				if !slices.Equal(x.keys, m.keys) {
					t.Fatalf("op %d: slab %v, model %v", i, x.keys, m.keys)
				}
				for p, k := range m.keys {
					if got := x.find(k); got != int32(p) {
						t.Fatalf("op %d: find(%d) = %d, want %d", i, k, got, p)
					}
				}
				if x.direct && x.tombs != 0 {
					t.Fatalf("op %d: direct table with %d tombstones", i, x.tombs)
				}
			}
			const ops = 20_000
			for i := range ops {
				was := x.direct
				k := st.key(rng, i)
				switch op := rng.Intn(100); {
				case st.clearEvery > 0 && i%st.clearEvery == st.clearEvery-1:
					x.clear()
					m = probeModel{pos: map[int64]int32{}}
				case op < 60:
					pos, added := x.insert(k)
					wpos, wadded := m.insert(k)
					if pos != wpos || added != wadded {
						t.Fatalf("op %d: insert(%d) = %d,%v, want %d,%v", i, k, pos, added, wpos, wadded)
					}
				case op < 80:
					want, ok := m.pos[k]
					if !ok {
						want = -1
					}
					if got := x.find(k); got != want {
						t.Fatalf("op %d: find(%d) = %d, want %d", i, k, got, want)
					}
				default:
					if got, want := x.remove(k), m.remove(k); got != want {
						t.Fatalf("op %d: remove(%d) = %d, want %d", i, k, got, want)
					}
				}
				if x.direct != was {
					switches++
					total[x.direct]++
				}
				if i%256 == 0 {
					check(i)
				}
			}
			check(ops)
			t.Logf("%d mode switches, %d keys, direct=%v", switches, len(x.keys), x.direct)
			if st.minSwitches >= 0 && switches < st.minSwitches {
				t.Errorf("%d mode switches, want at least %d", switches, st.minSwitches)
			}
			if st.maxSwitches >= 0 && switches > st.maxSwitches {
				t.Errorf("%d mode switches, want at most %d", switches, st.maxSwitches)
			}
		})
	}
	if total[true] == 0 || total[false] == 0 {
		t.Errorf("switches to direct %d, back to hashed %d: want both crossed", total[true], total[false])
	}
}

// TestCacheLinePadding pins the sizes of the structs that goroutines write
// per record side by side — a combiner fold, a task and its tallies, a
// writer and its buffers — to whole 64-B cache lines, so neighbouring ones
// never share a line.
func TestCacheLinePadding(t *testing.T) {
	w := newWriter(newExchange(0, 2, 2, nil), optimizer.ShipPartition, record.KeyA, 0, nil, nil, nil, nil, nil)
	for name, size := range map[string]uintptr{
		"combineFold": unsafe.Sizeof(combineFold{}),
		"task":        unsafe.Sizeof(task{}),
		"writer":      unsafe.Sizeof(writer{}),
		"writer.bufs": uintptr(cap(w.bufs)) * unsafe.Sizeof(record.Batch(nil)),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d B, not a multiple of 64: adjust its pad", name, size)
		}
	}
}

// probeSink keeps BenchmarkProbeIndex's lookups from being optimised away.
var probeSink int32

// BenchmarkProbeIndex measures insert (a fresh round into a cleared index)
// and find over 1<<16 keys: dense vertex ids, the half of a dense domain
// one of two hash partitions holds, and sparse int64 keys, which stay
// hashed.
func BenchmarkProbeIndex(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	streams := map[string][]int64{}
	for k := int64(0); k < n; k++ {
		streams["dense"] = append(streams["dense"], k)
	}
	for k := int64(0); len(streams["half"]) < n; k++ {
		if record.PartitionOf(k, 2) == 0 {
			streams["half"] = append(streams["half"], k)
		}
	}
	for range n {
		streams["sparse"] = append(streams["sparse"], rng.Int63())
	}
	for _, name := range []string{"dense", "half", "sparse"} {
		keys := streams[name]
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var x probeIndex
		for _, k := range keys {
			x.insert(k)
		}
		b.Run(fmt.Sprintf("%s/insert", name), func(b *testing.B) {
			for range b.N {
				x.clear()
				for _, k := range keys {
					x.insert(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
		b.Run(fmt.Sprintf("%s/find", name), func(b *testing.B) {
			for range b.N {
				for _, k := range keys {
					probeSink += x.find(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
}
