package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/record"
)

// The section file format of live's snapshots: a fixed
// header (magic, version, kind, iteration counter) followed by
// *sections*, each a sequence of bounded CRC32 frames (record.Frame*)
// closed by an empty frame. Writing chunks the records into frames as
// they arrive — a snapshot of an N-record solution set never holds more
// than one frame's worth of encoded bytes in memory — and reading decodes
// through a fixed 64 KiB buffered reader, so a multi-gigabyte (or
// corrupt-header) file cannot allocate unboundedly. The live durability
// layer writes its snapshots and view_open payloads through this
// writer/reader, its files through writeFileDurable, and its write-ahead
// log in the same framing.

const (
	checkpointMagic   = uint32(0x53464c57) // "SFLW"
	checkpointVersion = uint32(3)
	// checkpointMaxKind bounds the kind-string length a reader accepts;
	// anything larger is a corrupt header, not a real kind.
	checkpointMaxKind = 256
	// checkpointChunk is the number of records per frame the writer emits:
	// the bound on encoded bytes resident during a streaming write.
	checkpointChunk = 4096
)

// checkpointWriter streams a checkpoint-format file: a header (magic,
// version, kind, iteration) followed by sections of CRC32-framed record
// batches. Records are buffered into frames of at most checkpointChunk,
// so writing never materializes the full record set in encoded form.
type checkpointWriter struct {
	bw    *bufio.Writer
	buf   []byte
	chunk record.Batch
	err   error
	// open is set by Append and cleared by EndSection: a section holding
	// records but no end marker yet, even when its last full frame has
	// already left the chunk.
	open bool
}

// writeCheckpoint streams one checkpoint-format file into w: the header,
// whatever sections body appends, and the flush.
func writeCheckpoint(w io.Writer, kind string, iteration uint64, body func(cw *checkpointWriter) error) error {
	if len(kind) > checkpointMaxKind {
		return fmt.Errorf("live: checkpoint kind %q too long", kind)
	}
	cw := &checkpointWriter{bw: bufio.NewWriterSize(w, frameWriteBufSize)}
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, checkpointMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, checkpointVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.LittleEndian.AppendUint64(hdr, iteration)
	cw.bw.Write(hdr) // a failed write sticks in bw: every later write and Flush return it
	if err := body(cw); err != nil {
		return err
	}
	return cw.Flush()
}

// frameWriteBufSize is the buffered-writer size of streaming checkpoint
// writes, mirroring the read side's fixed buffer.
const frameWriteBufSize = 64 << 10

// Append adds one record to the current section, flushing a frame
// whenever checkpointChunk records have accumulated.
func (cw *checkpointWriter) Append(r record.Record) error {
	if cw.err != nil {
		return cw.err
	}
	cw.chunk = append(cw.chunk, r)
	cw.open = true
	if len(cw.chunk) >= checkpointChunk {
		return cw.flushChunk()
	}
	return nil
}

func (cw *checkpointWriter) flushChunk() error {
	if len(cw.chunk) == 0 {
		return cw.err
	}
	cw.buf = record.AppendFrame(cw.buf[:0], cw.chunk)
	cw.chunk = cw.chunk[:0]
	if _, err := cw.bw.Write(cw.buf); err != nil {
		cw.err = err
	}
	return cw.err
}

// EndSection flushes the partial frame and writes the section's closing
// marker (an empty frame).
func (cw *checkpointWriter) EndSection() error {
	if err := cw.flushChunk(); err != nil {
		return err
	}
	cw.buf = record.AppendFrame(cw.buf[:0], nil)
	if _, err := cw.bw.Write(cw.buf); err != nil {
		cw.err = err
	}
	cw.open = false
	return cw.err
}

// Flush drains the buffered writer. It does not close an open section;
// call EndSection first.
func (cw *checkpointWriter) Flush() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.open {
		return fmt.Errorf("live: checkpoint section left open")
	}
	return cw.bw.Flush()
}

// checkpointReader streams a checkpoint-format file back: the header is
// parsed eagerly, sections are consumed one at a time through a fixed
// 64 KiB buffered reader.
type checkpointReader struct {
	fr        *record.FrameReader
	kind      string
	iteration uint64
}

// newCheckpointReader parses the header. Decoding is bounded: the kind
// length is capped before any allocation depends on it.
func newCheckpointReader(r io.Reader) (*checkpointReader, error) {
	br := bufio.NewReaderSize(r, frameWriteBufSize)
	var u32 [4]byte
	readU32 := func(what string) (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, fmt.Errorf("live: checkpoint truncated in %s: %w", what, err)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	magic, err := readU32("magic")
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("live: not a checkpoint (magic %#x)", magic)
	}
	version, err := readU32("version")
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("live: unsupported checkpoint version %d", version)
	}
	kindLen, err := readU32("kind length")
	if err != nil {
		return nil, err
	}
	if kindLen > checkpointMaxKind {
		return nil, fmt.Errorf("live: checkpoint kind length %d exceeds %d", kindLen, checkpointMaxKind)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(br, kind); err != nil {
		return nil, fmt.Errorf("live: checkpoint truncated in kind: %w", err)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, fmt.Errorf("live: checkpoint truncated in iteration: %w", err)
	}
	return &checkpointReader{
		fr:        record.NewFrameReader(br),
		kind:      string(kind),
		iteration: binary.LittleEndian.Uint64(u64[:]),
	}, nil
}

// ReadSection consumes one section, invoking f once per frame, until the
// section's closing marker. It returns io.EOF when the stream ends
// cleanly before another section starts, and an error wrapping
// record.ErrCorruptFrame for torn or corrupt frames.
func (cr *checkpointReader) ReadSection(f func(record.Batch) error) error {
	first := true
	for {
		b, err := cr.fr.Next()
		if err != nil {
			if err == io.EOF && first {
				return io.EOF
			}
			if err == io.EOF {
				return fmt.Errorf("%w: section missing its end marker", record.ErrCorruptFrame)
			}
			return err
		}
		first = false
		if len(b) == 0 {
			return nil
		}
		if err := f(b); err != nil {
			return err
		}
	}
}

// writeFileDurable writes path atomically *and* durably: the content is
// produced into path.tmp, fsynced, renamed over path, and the parent
// directory is fsynced so the rename itself survives a crash. Without
// the syncs, a crash shortly after a "successful" save can leave an
// empty or torn file behind the new name — rename alone orders nothing.
// A crash before the rename leaves path.tmp behind; recoverView reclaims it.
// After a failed call path may name the old content or the new: a caller
// that meets an error goes down (wal.go), and recovery reads either.
func writeFileDurable(fs fsys, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}
