package iterative

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/record"
)

// The section file format of live's snapshots (internal/live): a fixed
// header (magic, version, kind, iteration counter) followed by
// *sections*, each a sequence of bounded CRC32 frames (record.Frame*)
// closed by an empty frame. Writing chunks the records into frames as
// they arrive — a snapshot of an N-record solution set never holds more
// than one frame's worth of encoded bytes in memory — and reading decodes
// through a fixed 64 KiB buffered reader, so a multi-gigabyte (or
// corrupt-header) file cannot allocate unboundedly. The live durability
// layer writes its snapshots and view_open payloads through this
// writer/reader, its files through WriteFileDurable, and its write-ahead
// log in the same framing.

const (
	checkpointMagic   = uint32(0x53464c57) // "SFLW"
	checkpointVersion = uint32(2)
	// checkpointMaxKind bounds the kind-string length a reader accepts;
	// anything larger is a corrupt header, not a real kind.
	checkpointMaxKind = 256
	// checkpointChunk is the number of records per frame the writer emits:
	// the bound on encoded bytes resident during a streaming write.
	checkpointChunk = 4096
)

// CheckpointWriter streams a checkpoint-format file: a header (magic,
// version, kind, iteration) followed by sections of CRC32-framed record
// batches. Records are buffered into frames of at most checkpointChunk,
// so writing never materializes the full record set in encoded form.
type CheckpointWriter struct {
	bw    *bufio.Writer
	buf   []byte
	chunk record.Batch
	err   error
	// open is set by Append and cleared by EndSection: a section holding
	// records but no end marker yet, even when its last full frame has
	// already left the chunk.
	open bool
}

// NewCheckpointWriter writes the header and returns a writer positioned
// at the first section.
func NewCheckpointWriter(w io.Writer, kind string, iteration uint64) (*CheckpointWriter, error) {
	if len(kind) > checkpointMaxKind {
		return nil, fmt.Errorf("iterative: checkpoint kind %q too long", kind)
	}
	cw := &CheckpointWriter{bw: bufio.NewWriterSize(w, frameWriteBufSize)}
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, checkpointMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, checkpointVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.LittleEndian.AppendUint64(hdr, iteration)
	if _, err := cw.bw.Write(hdr); err != nil {
		return nil, err
	}
	return cw, nil
}

// frameWriteBufSize is the buffered-writer size of streaming checkpoint
// writes, mirroring the read side's fixed buffer.
const frameWriteBufSize = 64 << 10

// Append adds one record to the current section, flushing a frame
// whenever checkpointChunk records have accumulated.
func (cw *CheckpointWriter) Append(r record.Record) error {
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

func (cw *CheckpointWriter) flushChunk() error {
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
func (cw *CheckpointWriter) EndSection() error {
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
func (cw *CheckpointWriter) Flush() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.open {
		return fmt.Errorf("iterative: checkpoint section left open")
	}
	return cw.bw.Flush()
}

// CheckpointReader streams a checkpoint-format file back: the header is
// parsed eagerly, sections are consumed one at a time through a fixed
// 64 KiB buffered reader.
type CheckpointReader struct {
	fr        *record.FrameReader
	kind      string
	iteration uint64
}

// NewCheckpointReader parses the header. Decoding is bounded: the kind
// length is capped before any allocation depends on it.
func NewCheckpointReader(r io.Reader) (*CheckpointReader, error) {
	br := bufio.NewReaderSize(r, frameWriteBufSize)
	var u32 [4]byte
	readU32 := func(what string) (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, fmt.Errorf("iterative: checkpoint truncated in %s", what)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	magic, err := readU32("magic")
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("iterative: not a checkpoint (magic %#x)", magic)
	}
	version, err := readU32("version")
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("iterative: unsupported checkpoint version %d", version)
	}
	kindLen, err := readU32("kind length")
	if err != nil {
		return nil, err
	}
	if kindLen > checkpointMaxKind {
		return nil, fmt.Errorf("iterative: checkpoint kind length %d exceeds %d", kindLen, checkpointMaxKind)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(br, kind); err != nil {
		return nil, fmt.Errorf("iterative: checkpoint truncated in kind")
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, fmt.Errorf("iterative: checkpoint truncated in iteration")
	}
	return &CheckpointReader{
		fr:        record.NewFrameReader(br),
		kind:      string(kind),
		iteration: binary.LittleEndian.Uint64(u64[:]),
	}, nil
}

// Kind returns the header's kind string.
func (cr *CheckpointReader) Kind() string { return cr.kind }

// Iteration returns the header's iteration counter.
func (cr *CheckpointReader) Iteration() uint64 { return cr.iteration }

// ReadSection consumes one section, invoking f once per frame, until the
// section's closing marker. It returns io.EOF when the stream ends
// cleanly before another section starts, and an error wrapping
// record.ErrCorruptFrame for torn or corrupt frames.
func (cr *CheckpointReader) ReadSection(f func(record.Batch) error) error {
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

// WriteFileDurable writes path atomically *and* durably: the content is
// produced into path.tmp, fsynced, renamed over path, and the parent
// directory is fsynced so the rename itself survives a crash. Without
// the syncs, a crash shortly after a "successful" save can leave an
// empty or torn file behind the new name — rename alone orders nothing.
func WriteFileDurable(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems refuse to fsync directories (EINVAL/ENOTSUP); those errors
// are ignored — on such systems the rename is as durable as it can be
// made.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
