package runtime

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
)

// Spill files back the spill backend (backend.go): an evicted
// solution-set partition is written to a temporary file as CRC frames
// (record.AppendFrame) and replayed from disk when it is touched again.

// spillFile is one evicted partition's on-disk representation.
type spillFile struct {
	path  string
	bytes int64
}

// spillBatches writes batches to a fresh temp file, one CRC frame each.
func spillBatches(batches []record.Batch) (*spillFile, error) {
	f, err := os.CreateTemp("", "spinflow-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("runtime: creating spill file: %w", err)
	}
	bw := bufio.NewWriter(f)
	var buf []byte
	var total int64
	for _, b := range batches {
		buf = record.AppendFrame(buf[:0], b)
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

// replay streams the spilled frames back through f, one batch at a time
// through the frame reader's fixed-size buffer — the file is never
// materialized in memory, which is the point of spilling it. A frame that
// fails its checksum, or a file that ends early (even on a frame
// boundary), is an error; f never sees a batch that failed its check.
func (s *spillFile) replay(f func(record.Batch)) error {
	file, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("runtime: opening spill file: %w", err)
	}
	defer file.Close()
	fr := record.NewFrameReader(file)
	for {
		b, err := fr.Next()
		if err == io.EOF {
			if fr.ValidOffset() != s.bytes {
				return fmt.Errorf("runtime: spill file ends after %d of %d bytes", fr.ValidOffset(), s.bytes)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("runtime: reading spill file: %w", err)
		}
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
