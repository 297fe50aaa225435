package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func frameStream(batches []Batch) []byte {
	var buf []byte
	for _, b := range batches {
		buf = AppendFrame(buf, b)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	batches := []Batch{
		{{A: 1, B: 2, X: 3.5}, {A: -9}},
		{}, // empty frames are valid (section markers)
		{{A: 7, B: 7, X: -0.25}},
	}
	buf := frameStream(batches)
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range batches {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d records, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("frame %d record %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if fr.ValidOffset() != int64(len(buf)) {
		t.Fatalf("ValidOffset %d, want %d", fr.ValidOffset(), len(buf))
	}
}

func TestFrameTornTailTruncation(t *testing.T) {
	good := frameStream([]Batch{{{A: 1}}, {{A: 2}, {A: 3}}})
	torn := AppendFrame(nil, Batch{{A: 4}})
	for cut := 1; cut < len(torn); cut++ {
		buf := append(append([]byte(nil), good...), torn[:cut]...)
		fr := NewFrameReader(bytes.NewReader(buf))
		n := 0
		var err error
		for {
			var b Batch
			b, err = fr.Next()
			if err != nil {
				break
			}
			n += len(b)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut %d: err %v, want ErrCorruptFrame", cut, err)
		}
		if n != 3 {
			t.Fatalf("cut %d: decoded %d records from the valid prefix, want 3", cut, n)
		}
		if fr.ValidOffset() != int64(len(good)) {
			t.Fatalf("cut %d: ValidOffset %d, want %d", cut, fr.ValidOffset(), len(good))
		}
	}
}

func TestFrameFlippedCRC(t *testing.T) {
	buf := frameStream([]Batch{{{A: 1, B: 2}}})
	for bit := 0; bit < 8*len(buf); bit++ {
		flipped := append([]byte(nil), buf...)
		flipped[bit/8] ^= 1 << (bit % 8)
		fr := NewFrameReader(bytes.NewReader(flipped))
		if b, err := fr.Next(); err == nil {
			// The only acceptable silent flip is none: any bit of the
			// header or payload participates in length/CRC validation.
			if len(b) != 1 || !b[0].Equal(buf2rec(buf)) {
				t.Fatalf("bit %d: corrupt frame decoded to %v", bit, b)
			}
			t.Fatalf("bit %d: flip accepted", bit)
		} else if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit %d: err %v, want ErrCorruptFrame", bit, err)
		}
	}
}

func buf2rec(frame []byte) Record {
	r, _, _ := Decode(frame[FrameHeaderSize+4:])
	return r
}

func TestFrameOversizeLengthPrefix(t *testing.T) {
	// A frame claiming 1<<26 records (a 1.5 GiB payload, a length that
	// fits the 32-bit prefix) followed by nothing must fail on the short
	// read, as a batch and as an opaque payload, having allocated about
	// what the stream holds: the payload buffer grows a read buffer at a
	// time as bytes arrive, never to the claimed length.
	const n = 1 << 26
	size := uint64(4) + n*EncodedSize
	if size >= 1<<32 {
		t.Fatalf("claimed payload %d does not fit the length prefix", size)
	}
	var hdr [FrameHeaderSize + 4]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(size))
	binary.LittleEndian.PutUint32(hdr[8:], n)
	for _, read := range []struct {
		name string
		next func(*FrameReader) error
	}{
		{"Next", func(fr *FrameReader) error { _, err := fr.Next(); return err }},
		{"NextPayload", func(fr *FrameReader) error { _, err := fr.NextPayload(); return err }},
	} {
		fr := NewFrameReader(bytes.NewReader(hdr[:]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read.next(fr)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptFrame) || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("%s on an oversize length: %v, want ErrCorruptFrame on the short read", read.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s allocated %d bytes for a %d-byte stream claiming a %d-byte payload", read.name, got, len(hdr), size)
		}
	}
}

// FuzzFrameReader feeds arbitrary bytes through the frame decoder, read
// as record batches and as opaque payloads: it must never panic or
// over-allocate, and whatever valid prefix it accepts must re-encode to
// the identical bytes.
func FuzzFrameReader(f *testing.F) {
	f.Add(frameStream([]Batch{{{A: 1, B: 2, X: 3}}, {}}))
	f.Add(frameStream([]Batch{{{A: -1}, {A: 5, X: 0.5}}})[:10])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var reenc []byte
		for {
			b, err := fr.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			reenc = AppendFrame(reenc, b)
		}
		off := fr.ValidOffset()
		if off > int64(len(data)) {
			t.Fatalf("ValidOffset %d beyond input %d", off, len(data))
		}
		if !bytes.Equal(reenc, data[:off]) {
			t.Fatalf("valid prefix does not re-encode identically")
		}

		fr, reenc = NewFrameReader(bytes.NewReader(data)), nil
		for {
			p, err := fr.NextPayload()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			reenc = SealFrame(append(append(reenc, make([]byte, FrameHeaderSize)...), p...), len(reenc))
		}
		if off := fr.ValidOffset(); !bytes.Equal(reenc, data[:off]) {
			t.Fatalf("valid payload prefix of %d bytes does not re-encode identically", off)
		}
	})
}
