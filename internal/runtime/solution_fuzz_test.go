package runtime

import (
	"encoding/binary"
	"testing"

	"repro/internal/record"
)

// FuzzSolutionBackend feeds a random insert/update/lookup/delete sequence
// to both solution backends (the spill one under a tiny budget, so
// evictions interleave with the operations) and checks every
// observation against a model map applying the seed semantics, including
// comparator arbitration in put and tombstone recycling after deletes.
// Runs of updates over consecutive keys fill a partition's index into
// direct mode, and negative keys and keys near 1<<40 (fuzzKey) move it
// back to hashed.
func FuzzSolutionBackend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 1, 2, 3, 4, 0, 0, 0, 0, 9, 9, 9, 9, 8, 7})
	f.Add(make([]byte, 64))
	f.Add([]byte{ // into direct mode, out on a negative and a far key
		5, 0, 1, 255, 5, 0, 2, 200, 2, 10, 0, 0, 4, 5, 0, 0, 0, 244, 3, 7,
		5, 60, 4, 255, 0, 250, 5, 9, 4, 250, 0, 9, 2, 244, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// CPO comparator: larger X succeeds (put keeps the CPO-larger one).
		cmp := func(a, b record.Record) int {
			switch {
			case a.X > b.X:
				return 1
			case a.X < b.X:
				return -1
			default:
				return 0
			}
		}
		sets := []*SolutionSet{
			NewSolutionSetWith(3, record.KeyA, cmp, nil, 0),
			NewSolutionSetWith(3, record.KeyA, cmp, nil, 8*record.EncodedSize),
		}
		for _, s := range sets {
			defer s.Reset() // the spill set's files
		}
		model := make(map[int64]record.Record)
		update := func(r record.Record) {
			old, exists := model[r.A]
			changed := true
			if exists && cmp(r, old) <= 0 {
				changed = false
			}
			if exists && old.Equal(r) {
				changed = false
			}
			if changed {
				model[r.A] = r
			}
			for i, s := range sets {
				if got := s.Update(r); got != changed {
					t.Fatalf("backend %d: Update(%v) = %v, want %v", i, r, got, changed)
				}
			}
		}

		for len(data) >= 5 {
			op := data[0] % 6
			k := fuzzKey(data[1], data[3])
			x := float64(int8(data[2]))
			b := int64(data[3])
			data = data[4:]
			r := record.Record{A: k, B: b, X: x}
			switch op {
			case 0, 1: // update (twice as likely as lookup)
				update(r)
			case 5: // a run of b updates over keys k, k+1, …
				for i := range b {
					r.A = k + i
					update(r)
				}
			case 2, 3: // lookup
				want, wantOK := model[k]
				for i, s := range sets {
					got, ok := s.Lookup(s.PartitionFor(k), k)
					if ok != wantOK || (ok && !got.Equal(want)) {
						t.Fatalf("backend %d: Lookup(%d) = %v,%v, want %v,%v", i, k, got, ok, want, wantOK)
					}
				}
			case 4: // delete
				_, wantOK := model[k]
				delete(model, k)
				for i, s := range sets {
					if got := s.Delete(k); got != wantOK {
						t.Fatalf("backend %d: Delete(%d) = %v, want %v", i, k, got, wantOK)
					}
				}
			}
		}
		for i, s := range sets {
			if s.Size() != len(model) {
				t.Fatalf("backend %d: Size = %d, want %d", i, s.Size(), len(model))
			}
			for _, r := range s.Snapshot() {
				if want := model[r.A]; !want.Equal(r) {
					t.Fatalf("backend %d: snapshot %v, want %v", i, r, want)
				}
			}
		}
	})
}

// fuzzKey draws a fuzzed key: mostly the dense domain [0, 960), with
// negative keys and keys near 1<<40 past it.
func fuzzKey(hi, lo byte) int64 {
	switch {
	case hi < 240:
		return int64(hi)*4 + int64(lo%4)
	case hi < 248:
		return -1 - int64(lo)
	default:
		return 1<<40 + int64(lo)
	}
}

// FuzzBatchRoundTrip pushes arbitrary record batches through the spill
// codec (EncodeBatch -> spill file -> streaming replay) and requires the
// replayed records to match exactly, and DecodeBatch on arbitrary bytes to
// fail cleanly rather than panic.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes must never panic the decoder.
		if b, rest, err := record.DecodeBatch(data); err == nil {
			re := record.EncodeBatch(nil, b)
			if len(re)+len(rest) != len(data) {
				t.Fatalf("re-encode consumed %d+%d bytes of %d", len(re), len(rest), len(data))
			}
		}

		// Deterministically derive batches from the fuzz input and round-trip
		// them through a spill file.
		var batches []record.Batch
		var all []record.Record
		for i := 0; i+8 <= len(data) && len(all) < 1<<12; i += 8 {
			v := binary.LittleEndian.Uint64(data[i : i+8])
			r := record.Record{
				A:   int64(v),
				B:   int64(v >> 7),
				X:   float64(int32(v)) / 3,
				Tag: byte(v >> 56),
			}
			all = append(all, r)
			if len(batches) == 0 || len(batches[len(batches)-1]) >= 3 {
				batches = append(batches, nil)
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], r)
		}
		sf, err := spillBatches(batches)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.remove()
		var got []record.Record
		if err := sf.replay(func(b record.Batch) { got = append(got, b...) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(all) {
			t.Fatalf("replayed %d records, want %d", len(got), len(all))
		}
		for i := range got {
			if !got[i].Equal(all[i]) {
				t.Fatalf("record %d: %v != %v", i, got[i], all[i])
			}
		}
	})
}
