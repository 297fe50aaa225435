package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
)

// Spill files back the SolutionSpill backend (backend.go): an evicted
// solution-set partition is written to a temporary file in serialized
// record form and replayed from disk when it is touched again.

// spillFile is one evicted partition's on-disk representation.
type spillFile struct {
	path  string
	bytes int64
}

// spillBatches serializes batches to a fresh temp file.
func spillBatches(batches []record.Batch) (*spillFile, error) {
	f, err := os.CreateTemp("", "spinflow-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("runtime: creating spill file: %w", err)
	}
	bw := bufio.NewWriter(f)
	var buf []byte
	var total int64
	for _, b := range batches {
		buf = record.EncodeBatch(buf[:0], b)
		n, err := bw.Write(buf)
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, fmt.Errorf("runtime: writing spill file: %w", err)
		}
		total += int64(n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	return &spillFile{path: f.Name(), bytes: total}, nil
}

// replayBufSize is the fixed size of the buffered reader replay streams
// spilled data through; memory per replay is bounded by this plus one
// decoded batch, independent of the spill file's size.
const replayBufSize = 64 << 10

// replay streams the spilled batches back through f, decoding records
// one at a time from a fixed-size buffered reader — the file is never
// materialized in memory, which is the point of spilling it. A file that
// ends early, even on a batch boundary, is an error.
func (s *spillFile) replay(f func(record.Batch)) error {
	file, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("runtime: opening spill file: %w", err)
	}
	defer file.Close()
	br := bufio.NewReaderSize(file, replayBufSize)
	var hdr [4]byte
	var rbuf [record.EncodedSize]byte
	var read int64
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF && read == s.bytes {
				return nil
			}
			if err == io.EOF {
				return fmt.Errorf("runtime: spill file ends after %d of %d bytes", read, s.bytes)
			}
			return fmt.Errorf("runtime: reading spill batch header: %w", err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		// Cap the allocation hint: a corrupt length prefix must produce a
		// short-read error below, not a multi-gigabyte allocation. (Same
		// hardening as record.DecodeBatch.)
		capHint := n
		if capHint > spillChunk {
			capHint = spillChunk
		}
		b := make(record.Batch, 0, capHint)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(br, rbuf[:]); err != nil {
				return fmt.Errorf("runtime: reading spill record: %w", err)
			}
			r, _, err := record.Decode(rbuf[:])
			if err != nil {
				return fmt.Errorf("runtime: decoding spill file: %w", err)
			}
			b = append(b, r)
		}
		read += int64(len(hdr)) + int64(n)*record.EncodedSize
		f(b)
	}
}

// remove deletes the backing file.
func (s *spillFile) remove() {
	os.Remove(s.path)
}

// batchesBytes estimates the in-memory footprint of cached batches.
func batchesBytes(batches []record.Batch) int64 {
	var n int64
	for _, b := range batches {
		n += int64(len(b)) * record.EncodedSize
	}
	return n
}
