// Package record defines the compact tuple model that flows through the
// dataflow engine, together with key selection, hashing, partitioning,
// comparison, and binary serialization.
//
// The engine deliberately uses a fixed-shape value type rather than boxed
// interface values: the paper's Stratosphere runtime "stores records in
// serialized form to reduce memory consumption and object allocation
// overhead" (§6.1), and a flat value struct of three words is the closest
// Go equivalent — records move through channels and hash tables without
// per-record heap allocation, 24 bytes each in memory and on the wire.
package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Record is a compact, fixed-shape tuple of three words: two integer
// columns and one floating-point column, 24 bytes with no padding. The
// meaning of the columns is defined by the dataflow that uses them;
// common layouts:
//
//	edge:            A=source vertex, B=target vertex
//	vertex/rank:     A=page id, X=rank
//	matrix entry:    A=target id (row), B=source id (column), X=probability
//	component pair:  A=vertex id, B=component id
//	message:         A=destination vertex, B=integer payload, X=float payload
type Record struct {
	A, B int64
	X    float64
}

// EncodedSize is the number of bytes Encode produces for one Record.
const EncodedSize = 8 + 8 + 8

// Encode appends the binary form of r to dst and returns the extended slice.
func (r Record) Encode(dst []byte) []byte {
	var buf [EncodedSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.A))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(r.B))
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(r.X))
	return append(dst, buf[:]...)
}

// Decode reads a Record from the front of src, returning the record and the
// remaining bytes. It returns an error if src is too short.
func Decode(src []byte) (Record, []byte, error) {
	if len(src) < EncodedSize {
		return Record{}, src, fmt.Errorf("record: decode needs %d bytes, have %d", EncodedSize, len(src))
	}
	r := Record{
		A: int64(binary.LittleEndian.Uint64(src[0:8])),
		B: int64(binary.LittleEndian.Uint64(src[8:16])),
		X: math.Float64frombits(binary.LittleEndian.Uint64(src[16:24])),
	}
	return r, src[EncodedSize:], nil
}

// String renders the record for debugging.
func (r Record) String() string {
	return fmt.Sprintf("(A=%d B=%d X=%g)", r.A, r.B, r.X)
}

// KeyFunc extracts the grouping/joining key from a record.
type KeyFunc func(Record) int64

// Standard key selectors.
var (
	KeyA KeyFunc = func(r Record) int64 { return r.A }
	KeyB KeyFunc = func(r Record) int64 { return r.B }
)

// KeyID returns a comparable identity for a key selector: two KeyFunc
// values get the same id iff they are the same function value. The
// package-level selectors KeyA and KeyB are singletons, so plans built
// from them get precise physical-property matching in the optimizer.
func KeyID(k KeyFunc) uintptr {
	if k == nil {
		return 0
	}
	return reflect.ValueOf(k).Pointer()
}

// Hash64 mixes a 64-bit key into a well-distributed 64-bit hash
// (splitmix64 finalizer). It is the single hash used for partitioning and
// hash tables so that co-partitioned inputs land on the same partition.
func Hash64(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PartitionOf maps a key to one of n partitions.
func PartitionOf(k int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash64(k) % uint64(n))
}

// Comparator establishes a total order between two records that share a
// key. Incremental iterations use it to decide, when a delta record would
// replace a solution-set record, which of the two is the CPO-successor
// state (§5.1: "the larger one will be reflected in S").
// It returns a negative number if a precedes b, zero if they are
// equivalent, and a positive number if a succeeds b.
type Comparator func(a, b Record) int

// Equal reports full structural equality of two records.
func (r Record) Equal(o Record) bool {
	return r.A == o.A && r.B == o.B && r.X == o.X
}

// Less orders records by (A, B, X); used by sort-based local
// strategies and deterministic test output.
func Less(a, b Record) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.X < b.X
}

// Batch is the unit of transfer between physical operators.
type Batch = []Record

// EncodeBatch serializes a batch, prefixed with its length.
func EncodeBatch(dst []byte, b Batch) []byte {
	var lenbuf [4]byte
	binary.LittleEndian.PutUint32(lenbuf[:], uint32(len(b)))
	dst = append(dst, lenbuf[:]...)
	for _, r := range b {
		dst = r.Encode(dst)
	}
	return dst
}

// DecodeBatch reads a batch written by EncodeBatch.
func DecodeBatch(src []byte) (Batch, []byte, error) {
	if len(src) < 4 {
		return nil, src, fmt.Errorf("record: batch header needs 4 bytes, have %d", len(src))
	}
	n := int(binary.LittleEndian.Uint32(src[:4]))
	src = src[4:]
	// Cap the allocation hint by what the buffer can actually hold, so a
	// corrupt length prefix fails with a decode error instead of a
	// multi-gigabyte allocation.
	capHint := n
	if max := len(src) / EncodedSize; capHint > max {
		capHint = max
	}
	out := make(Batch, 0, capHint)
	for i := 0; i < n; i++ {
		var r Record
		var err error
		r, src, err = Decode(src)
		if err != nil {
			return nil, src, err
		}
		out = append(out, r)
	}
	return out, src, nil
}
