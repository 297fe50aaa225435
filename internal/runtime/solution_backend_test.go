package runtime

import (
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
)

// update merges the single record r, reporting whether it changed the set.
func update(s *SolutionSet, r record.Record) bool { return s.MergeDelta([]record.Record{r}) == 1 }

var backendKinds = []struct {
	name   string
	budget int64
}{
	{"compact", 0},
	{"spill-tight", 256},
	{"spill-roomy", 1 << 20},
}

// TestSolutionBackendsAgree drives every backend through the same
// insert/update sequence and checks Lookup/Size/Snapshot against the map
// semantics of the seed implementation.
func TestSolutionBackendsAgree(t *testing.T) {
	const parts = 4
	recs := make([]record.Record, 500)
	for i := range recs {
		recs[i] = record.Record{A: int64(i % 100), B: int64(i), X: float64(i)}
	}
	for _, bk := range backendKinds {
		t.Run(bk.name, func(t *testing.T) {
			s := NewSolutionSetWith(parts, record.KeyA, nil, nil, bk.budget)
			t.Cleanup(s.Reset)
			model := make(map[int64]record.Record)
			for _, r := range recs {
				update(s, r)
				model[r.A] = r
			}
			if s.Size() != len(model) {
				t.Fatalf("Size = %d, want %d", s.Size(), len(model))
			}
			for k, want := range model {
				got, ok := s.Lookup(s.PartitionFor(k), k)
				if !ok || !got.Equal(want) {
					t.Fatalf("Lookup(%d) = %v,%v, want %v", k, got, ok, want)
				}
			}
			snap := s.Snapshot()
			if len(snap) != len(model) {
				t.Fatalf("Snapshot has %d records, want %d", len(snap), len(model))
			}
			for _, r := range snap {
				if !model[r.A].Equal(r) {
					t.Fatalf("snapshot record %v != model %v", r, model[r.A])
				}
			}
		})
	}
}

// TestSolutionSpillSnapshotConsistency is the regression guard for the
// eviction path dropping in-flight updates: Snapshot and Size must stay
// consistent across spill/reload boundaries, including after MergeDelta
// with a comparator arbitrating replacements.
func TestSolutionSpillSnapshotConsistency(t *testing.T) {
	// CPO: the record with the smaller X is the successor (min-distance).
	cmp := func(a, b record.Record) int {
		switch {
		case a.X < b.X:
			return 1
		case a.X > b.X:
			return -1
		default:
			return 0
		}
	}
	var m metrics.Counters
	// A budget of ~10 records across 4 partitions forces continuous
	// eviction while the merges run.
	s := NewSolutionSetWith(4, record.KeyA, cmp, &m, 10*record.EncodedSize)
	t.Cleanup(s.Reset)
	model := make(map[int64]record.Record)

	apply := func(delta []record.Record) {
		s.MergeDelta(delta)
		for _, r := range delta {
			if old, ok := model[r.A]; !ok || r.X < old.X {
				model[r.A] = r
			}
		}
	}
	// Three generations of deltas: inserts, improvements, and rejected
	// regressions interleaved so evicted partitions are reloaded mid-merge.
	var d1, d2, d3 []record.Record
	for i := int64(0); i < 200; i++ {
		d1 = append(d1, record.Record{A: i, X: float64(100 + i)})
		d2 = append(d2, record.Record{A: i, X: float64(50 + i)})  // improves
		d3 = append(d3, record.Record{A: i, X: float64(900 + i)}) // rejected
	}
	apply(d1)
	apply(d2)
	apply(d3)

	if m.SolutionSpills.Load() == 0 || m.SolutionReloads.Load() == 0 {
		t.Fatalf("expected spill traffic, got spills=%d reloads=%d",
			m.SolutionSpills.Load(), m.SolutionReloads.Load())
	}
	if s.Size() != len(model) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(model))
	}
	snap := s.Snapshot()
	if len(snap) != len(model) {
		t.Fatalf("Snapshot has %d records, want %d", len(snap), len(model))
	}
	for _, r := range snap {
		want, ok := model[r.A]
		if !ok || !want.Equal(r) {
			t.Fatalf("snapshot record %v, want %v", r, want)
		}
	}
	// Point lookups agree with the snapshot even for spilled partitions.
	for k, want := range model {
		got, ok := s.Lookup(s.PartitionFor(k), k)
		if !ok || !got.Equal(want) {
			t.Fatalf("Lookup(%d) = %v,%v, want %v", k, got, ok, want)
		}
	}
}

// TestSolutionSpillResidencyBounded checks that the resident estimate
// respects the budget once merges quiesce (best-effort: the active
// partition may exceed it transiently).
func TestSolutionSpillResidencyBounded(t *testing.T) {
	budget := int64(64 * record.EncodedSize)
	s := NewSolutionSetWith(8, record.KeyA, nil, nil, budget)
	t.Cleanup(s.Reset)
	for i := int64(0); i < 4000; i++ {
		update(s, record.Record{A: i, B: i})
	}
	// Everything except the most recently touched partition fits under the
	// budget; one partition of ~500 records may still be resident.
	slack := int64(4000/8+16) * record.EncodedSize
	if got := s.Bytes(); got > budget+slack {
		t.Fatalf("resident %d bytes, budget %d (+%d slack)", got, budget, slack)
	}
	if s.Size() != 4000 {
		t.Fatalf("Size = %d, want 4000", s.Size())
	}
}

// TestSolutionResetReusesCapacity checks the generational contract: after
// Reset the set is empty, usable, and (for the spill backend) leaves no
// spill files behind.
func TestSolutionResetReusesCapacity(t *testing.T) {
	for _, bk := range backendKinds {
		t.Run(bk.name, func(t *testing.T) {
			s := NewSolutionSetWith(2, record.KeyA, nil, nil, bk.budget)
			for i := int64(0); i < 300; i++ {
				update(s, record.Record{A: i})
			}
			var files []string
			if sb, ok := s.backend.(*spillBackend); ok {
				for i := range sb.parts {
					if sb.parts[i].file != nil {
						files = append(files, sb.parts[i].file.path)
					}
				}
			}
			s.Reset()
			if s.Size() != 0 || len(s.Snapshot()) != 0 {
				t.Fatalf("Reset left %d records", s.Size())
			}
			for _, p := range files {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("spill file %s survived Reset", p)
				}
			}
			update(s, record.Record{A: 7, B: 9})
			if r, ok := s.Lookup(s.PartitionFor(7), 7); !ok || r.B != 9 {
				t.Fatalf("post-Reset lookup = %v,%v", r, ok)
			}
		})
	}
}

// TestCompactIndexGrowth exercises rehashing across several doublings and
// update-in-place semantics.
func TestCompactIndexGrowth(t *testing.T) {
	var c compactIndex
	const n = 10000
	for i := int64(0); i < n; i++ {
		if !c.store(i, record.Record{A: i, B: i}) {
			t.Fatalf("store(%d) reported update, want insert", i)
		}
	}
	if c.store(42, record.Record{A: 42, B: -1}) {
		t.Fatal("overwrite reported insert")
	}
	if len(c.recs) != n {
		t.Fatalf("count = %d, want %d", len(c.recs), n)
	}
	for i := int64(0); i < n; i++ {
		r, ok := c.lookup(i)
		want := int64(i)
		if i == 42 {
			want = -1
		}
		if !ok || r.B != want {
			t.Fatalf("lookup(%d) = %v,%v", i, r, ok)
		}
	}
	if _, ok := c.lookup(n + 1); ok {
		t.Fatal("lookup of absent key succeeded")
	}
}

// TestSolutionBackendsDelete drives every backend through interleaved
// inserts and deletes (including re-inserting deleted keys, which must
// recycle compact-index tombstones) and checks Lookup/Size/Snapshot and
// the ForceStore comparator bypass against a model map.
func TestSolutionBackendsDelete(t *testing.T) {
	for _, bk := range backendKinds {
		t.Run(bk.name, func(t *testing.T) {
			s := NewSolutionSetWith(3, record.KeyA, nil, nil, bk.budget)
			t.Cleanup(s.Reset)
			model := make(map[int64]record.Record)
			for i := int64(0); i < 400; i++ {
				r := record.Record{A: i, B: i * 2}
				update(s, r)
				model[i] = r
			}
			// Delete every third key, then a missing key.
			for i := int64(0); i < 400; i += 3 {
				if !s.Delete(i) {
					t.Fatalf("Delete(%d) = false, want true", i)
				}
				delete(model, i)
			}
			if s.Delete(10_000) {
				t.Fatal("Delete of absent key reported true")
			}
			// Re-insert a slice of the deleted range (tombstone reuse).
			for i := int64(0); i < 120; i += 3 {
				r := record.Record{A: i, B: -i}
				update(s, r)
				model[i] = r
			}
			if s.Size() != len(model) {
				t.Fatalf("Size = %d, want %d", s.Size(), len(model))
			}
			for i := int64(0); i < 400; i++ {
				want, wantOK := model[i]
				got, ok := s.Lookup(s.PartitionFor(i), i)
				if ok != wantOK || (ok && !got.Equal(want)) {
					t.Fatalf("Lookup(%d) = %v,%v, want %v,%v", i, got, ok, want, wantOK)
				}
			}
			if snap := s.Snapshot(); len(snap) != len(model) {
				t.Fatalf("Snapshot has %d records, want %d", len(snap), len(model))
			}
		})
	}
}

// TestSolutionForceStoreBypassesComparator checks that ForceStore can move
// an entry to a CPO-smaller state that a merge would reject — the operation
// bounded recomputes rely on.
func TestSolutionForceStoreBypassesComparator(t *testing.T) {
	minB := func(a, b record.Record) int { // smaller B is the successor
		switch {
		case a.B < b.B:
			return 1
		case a.B > b.B:
			return -1
		}
		return 0
	}
	for _, bk := range backendKinds {
		t.Run(bk.name, func(t *testing.T) {
			s := NewSolutionSetWith(2, record.KeyA, minB, nil, bk.budget)
			update(s, record.Record{A: 1, B: 5})
			if update(s, record.Record{A: 1, B: 9}) {
				t.Fatal("a merged regression was accepted")
			}
			s.ForceStore(record.Record{A: 1, B: 9})
			if r, _ := s.Lookup(s.PartitionFor(1), 1); r.B != 9 {
				t.Fatalf("ForceStore did not overwrite: %v", r)
			}
		})
	}
}

// TestCompactIndexDeleteSwap exercises the slab swap-remove paths of
// compactIndex.delete directly: deleting the last slab entry, a middle
// entry (which moves the last entry into the hole and repoints its probe
// slot), and the tombstone sweep rehash.
func TestCompactIndexDeleteSwap(t *testing.T) {
	var c compactIndex
	const n = 1000
	for i := int64(0); i < n; i++ {
		c.store(i, record.Record{A: i, B: i})
	}
	// Delete in an order that hits both the s==last and s!=last paths.
	for i := int64(0); i < n; i += 2 {
		if !c.delete(i) {
			t.Fatalf("delete(%d) = false", i)
		}
		if c.delete(i) {
			t.Fatalf("double delete(%d) = true", i)
		}
	}
	if len(c.recs) != n/2 {
		t.Fatalf("count = %d, want %d", len(c.recs), n/2)
	}
	for i := int64(0); i < n; i++ {
		r, ok := c.lookup(i)
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted key %d still present: %v", i, r)
			}
		} else if !ok || r.B != i {
			t.Fatalf("surviving key %d = %v,%v", i, r, ok)
		}
	}
}
