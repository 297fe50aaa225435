package live

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/record"
)

// samePacked reports whether two record slices are equal field by field,
// X compared by its bits so a NaN round-trips as itself.
func samePacked(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B || a[i].Tag != b[i].Tag ||
			math.Float64bits(a[i].X) != math.Float64bits(b[i].X) {
			return false
		}
	}
	return true
}

// FuzzPackedRecords drives the control plane's record codec with bytes a
// peer chose: unpackRecords must never panic, any payload it accepts must
// re-pack to records that unpack equal, and packRecords must round-trip
// the records the same bytes spell out in the record encoding — negative
// A and B, NaN and zero fields included.
func FuzzPackedRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<63)) // a count that overflows int
	f.Add(packRecords([]record.Record{{A: -1, B: math.MinInt64, X: -0.5, Tag: 3}, {A: 7}}))
	f.Add(record.Record{A: math.MaxInt64, B: -2, X: math.NaN(), Tag: 255}.Encode(nil))
	f.Fuzz(func(t *testing.T, p []byte) {
		if recs, err := unpackRecords(p); err == nil {
			again, err := unpackRecords(packRecords(recs))
			if err != nil || !samePacked(again, recs) {
				t.Fatalf("accepted payload re-packs to %v (%v), want %v", again, err, recs)
			}
		}
		var recs []record.Record
		for r, rest, err := record.Decode(p); err == nil; r, rest, err = record.Decode(rest) {
			recs = append(recs, r)
		}
		got, err := unpackRecords(packRecords(recs))
		if err != nil || !samePacked(got, recs) {
			t.Fatalf("packRecords(%v) unpacks to %v (%v)", recs, got, err)
		}
	})
}
