package runtime

import (
	"errors"
	"os"
	"testing"

	"repro/internal/record"
)

func TestSpillFileRoundTrip(t *testing.T) {
	batches := []record.Batch{
		{{A: 1, X: 1.5}, {A: 2}},
		{{A: 3, B: -7, Tag: 9}},
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
	if len(got) != 3 {
		t.Fatalf("replayed %d records", len(got))
	}
	if !got[2].Equal(batches[1][0]) {
		t.Errorf("record mismatch: %v", got[2])
	}
	if sf.bytes == 0 {
		t.Error("spill file reports zero bytes")
	}
}

func TestSpillFileRemove(t *testing.T) {
	sf, err := spillBatches([]record.Batch{{{A: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	sf.remove()
	if _, err := os.Stat(sf.path); !os.IsNotExist(err) {
		t.Error("spill file not removed")
	}
}

// TestLostSpillDropsPartition: an evicted solution partition whose spill
// file was cut short or had a byte flipped must come back neither
// half-replayed, nor with a wrong record, nor as a panic. The read that
// finds the damage drops the partition and deletes its file, and the set
// reports a loss wrapping ErrSolutionSpillLost until it is Reset. Both
// reads that replay a file are covered: a probe (which makes the
// partition resident) and Each (which streams it).
func TestLostSpillDropsPartition(t *testing.T) {
	for _, leg := range []struct{ name, damage, read string }{
		{"lookup", "truncate", "lookup"},
		{"each", "truncate", "each"},
		{"corrupt", "flip", "lookup"},
	} {
		t.Run(leg.name, func(t *testing.T) {
			s := NewSolutionSetWith(2, record.KeyA, nil, nil, 4*record.EncodedSize)
			b := s.backend.(*spillBackend)
			var cold []int64 // keys of partition 0, stored first and so evicted
			for k := int64(0); len(cold) < 3*spillChunk; k++ {
				if s.PartitionFor(k) == 0 {
					cold = append(cold, k)
				}
			}
			s.MergeDelta(recordsFor(cold))
			s.MergeDelta(recordsFor([]int64{hotKey(s)}))
			p := &b.parts[0]
			if p.file == nil {
				t.Fatal("partition 0 was not evicted under the tiny budget")
			}
			path := p.file.path
			switch leg.damage {
			case "truncate":
				// Keep the first frame whole, so a replay gets partway in.
				if err := os.Truncate(path, record.FrameHeaderSize+4+spillChunk*record.EncodedSize+1); err != nil {
					t.Fatal(err)
				}
			case "flip":
				// One flipped byte mid-file, inside a record of a later
				// frame: the length still adds up, so only the checksum
				// can tell.
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0x40
				if err := os.WriteFile(path, raw, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if s.Err() != nil {
				t.Fatalf("loss reported before any read: %v", s.Err())
			}

			switch leg.read {
			case "lookup":
				if _, ok := s.Lookup(0, cold[0]); ok {
					t.Fatal("a record of the lost partition was served")
				}
			case "each":
				s.EachPartition(0, func(record.Record) {})
			}
			if err := s.Err(); !errors.Is(err, ErrSolutionSpillLost) {
				t.Fatalf("Err() = %v, want ErrSolutionSpillLost", err)
			}
			if p.file != nil || len(p.idx.recs) != 0 || s.Size() != 1 {
				t.Fatalf("half-replayed partition left: file %v, %d resident records, size %d",
					p.file, len(p.idx.recs), s.Size())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged spill file %s left behind", path)
			}
			s.Reset()
			if s.Err() != nil {
				t.Fatalf("loss survived Reset: %v", s.Err())
			}
		})
	}
}

func recordsFor(keys []int64) []record.Record {
	out := make([]record.Record, len(keys))
	for i, k := range keys {
		out[i] = record.Record{A: k, B: k}
	}
	return out
}

// hotKey returns a key of partition 1.
func hotKey(s *SolutionSet) int64 {
	k := int64(0)
	for s.PartitionFor(k) != 1 {
		k++
	}
	return k
}
