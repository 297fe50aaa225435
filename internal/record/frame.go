package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Framed serialization: the unit of durable storage shared by the
// live-view write-ahead log, the streaming checkpoint format, spill files
// and the TCP data plane. A frame wraps one payload with a byte-length
// prefix and a CRC32 so a reader can (a) skip through a log without
// decoding, (b) detect torn tails — a crash mid-append leaves a frame
// whose length, checksum, or record count no longer agree — and (c)
// reject bit flips that a plain length-prefixed format would decode into
// garbage records.
//
//	frame := payloadLen uint32 | crc32(payload) uint32 | payload
//	payload := EncodeBatch(batch)   (count uint32 | count records)
//	         | opaque bytes         (SealFrame, NextPayload)

// FrameHeaderSize is the number of bytes preceding a frame's payload.
const FrameHeaderSize = 8

// ErrCorruptFrame reports a frame that cannot be trusted: a truncated
// header or payload, a checksum mismatch, or a length prefix inconsistent
// with the payload's record count. Readers treat the first corrupt frame
// as the end of the valid prefix (a torn tail).
var ErrCorruptFrame = errors.New("record: corrupt frame")

// AppendFrame appends the framed form of b to dst and returns the
// extended slice.
func AppendFrame(dst []byte, b Batch) []byte {
	start := len(dst)
	return SealFrame(EncodeBatch(append(dst, make([]byte, FrameHeaderSize)...), b), start)
}

// SealFrame writes the header of the frame that starts at dst[start]:
// FrameHeaderSize reserved bytes, then a payload that runs to the end of
// dst. A caller frames an opaque payload — one that is not a record batch,
// such as the live write-ahead log's mutation batches — by reserving the
// header, appending the payload after it and sealing; NextPayload reads
// it back.
func SealFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// FrameReader decodes a stream of frames through a fixed-size buffered
// reader: memory per frame is bounded by the buffer, one frame's payload
// and the decoded batch, independent of the stream's length, and
// allocation is proportional to bytes actually present — never to a
// corrupt length prefix.
type FrameReader struct {
	br      *bufio.Reader
	valid   int64
	payload []byte // the current frame's payload, reused
}

// frameReadBufSize is the fixed size of the buffered reader frames are
// streamed through, and the step a payload buffer grows by.
const frameReadBufSize = 64 << 10

// NewFrameReader wraps r for frame decoding. If r is already a
// *bufio.Reader it is used directly rather than double-buffered — the TCP
// transport interleaves its own message headers with frames on one
// connection, and both must consume from the same buffer to stay aligned.
func NewFrameReader(r io.Reader) *FrameReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &FrameReader{br: br}
	}
	return &FrameReader{br: bufio.NewReaderSize(r, frameReadBufSize)}
}

// ValidOffset returns the number of bytes consumed by fully-valid frames:
// after Next returns an error, it is the truncation point that discards
// the torn tail while keeping every intact frame.
func (fr *FrameReader) ValidOffset() int64 { return fr.valid }

// Next decodes the next frame as a record batch. It returns io.EOF at a
// clean end of the stream (no partial frame), an error wrapping
// ErrCorruptFrame for a truncated, checksum-failing, or self-inconsistent
// frame, and the reader's own error as it is. A length prefix that is no
// whole batch fails before any payload is read.
func (fr *FrameReader) Next() (Batch, error) {
	n, crc, err := fr.header()
	if err != nil {
		return nil, err
	}
	if n < 4 || (n-4)%EncodedSize != 0 {
		return nil, fmt.Errorf("%w: payload length %d is not a whole batch", ErrCorruptFrame, n)
	}
	p, err := fr.body(n, crc)
	if err != nil {
		return nil, err
	}
	if c := binary.LittleEndian.Uint32(p); c != (n-4)/EncodedSize {
		return nil, fmt.Errorf("%w: batch count %d disagrees with payload length %d", ErrCorruptFrame, c, n)
	}
	out, recs := make(Batch, (n-4)/EncodedSize), p[4:]
	for i := range out {
		out[i], recs, _ = Decode(recs) // the length check above makes every record whole
	}
	fr.valid += int64(FrameHeaderSize + n)
	return out, nil
}

// NextPayload reads the next frame as opaque bytes (SealFrame),
// valid until the next call. It fails like Next.
func (fr *FrameReader) NextPayload() ([]byte, error) {
	n, crc, err := fr.header()
	if err != nil {
		return nil, err
	}
	p, err := fr.body(n, crc)
	if err != nil {
		return nil, err
	}
	fr.valid += int64(FrameHeaderSize + n)
	return p, nil
}

// header reads a frame header: the payload's length and checksum, or
// io.EOF at a clean end of the stream.
func (fr *FrameReader) header() (n, crc uint32, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err != io.ErrUnexpectedEOF {
			return 0, 0, err // io.EOF at a clean end, or the reader's own error
		}
		return 0, 0, fmt.Errorf("%w: truncated header: %v", ErrCorruptFrame, err)
	}
	return binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:8]), nil
}

// body reads an n-byte payload into the reused buffer and checks it
// against crc. The buffer grows a read buffer's worth
// at a time, as bytes arrive, so a corrupt length prefix allocates no
// more than the stream holds.
func (fr *FrameReader) body(n, crc uint32) ([]byte, error) {
	p := fr.payload[:0]
	for len(p) < int(n) {
		k := min(int(n)-len(p), frameReadBufSize)
		p = slices.Grow(p, k)[:len(p)+k]
		if _, err := io.ReadFull(fr.br, p[len(p)-k:]); err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorruptFrame, err)
		} else if err != nil {
			return nil, err
		}
	}
	fr.payload = p
	if got := crc32.ChecksumIEEE(p); got != crc {
		return nil, fmt.Errorf("%w: checksum %#x, frame claims %#x", ErrCorruptFrame, got, crc)
	}
	return p, nil
}
