package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
)

// writeSections encodes a header and the given sections (say a solution
// and a workset) through the streaming writer.
func writeSections(w io.Writer, kind string, iteration uint64, sections ...[]record.Record) error {
	return writeCheckpoint(w, kind, iteration, func(cw *checkpointWriter) error {
		for _, section := range sections {
			for _, r := range section {
				if err := cw.Append(r); err != nil {
					return err
				}
			}
			if err := cw.EndSection(); err != nil {
				return err
			}
		}
		return nil
	})
}

// sectionFile is what readSections decodes: the header and both sections.
type sectionFile struct {
	kind              string
	iteration         uint64
	solution, workset []record.Record
}

// readSections decodes a writeSections file through the streaming
// reader. Exactly two sections must be present: a missing one is a torn
// file, a third one (or trailing bytes) is not this layout.
func readSections(r io.Reader) (*sectionFile, error) {
	cr, err := newCheckpointReader(r)
	if err != nil {
		return nil, err
	}
	f := &sectionFile{kind: cr.kind, iteration: cr.iteration}
	for _, dst := range []*[]record.Record{&f.solution, &f.workset} {
		err := cr.ReadSection(func(b record.Batch) error {
			*dst = append(*dst, b...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := cr.ReadSection(func(record.Batch) error { return nil }); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the second section")
	}
	return f, nil
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	solution := []record.Record{{A: 1, B: 2, X: 3.5}, {A: -1}}
	var buf bytes.Buffer
	if err := writeSections(&buf, "incremental", 17, solution, []record.Record{{A: 9}}); err != nil {
		t.Fatal(err)
	}
	back, err := readSections(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.kind != "incremental" || back.iteration != 17 {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.solution) != 2 || !back.solution[0].Equal(solution[0]) {
		t.Errorf("solution mismatch: %v", back.solution)
	}
	if len(back.workset) != 1 || back.workset[0].A != 9 {
		t.Errorf("workset mismatch: %v", back.workset)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := readSections(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := readSections(bytes.NewReader([]byte{0x57, 0x4c, 0x46, 0x53})); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestCheckpointRejectsOversizeKind(t *testing.T) {
	// A corrupt kind-length must be rejected before any allocation
	// depends on it.
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint32(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
	if _, err := newCheckpointReader(bytes.NewReader(buf)); err == nil ||
		!strings.Contains(err.Error(), "kind length") {
		t.Fatalf("oversize kind length: %v", err)
	}
}

func TestCheckpointTruncatedSection(t *testing.T) {
	solution := manyRecords(3 * checkpointChunk / 2)
	var buf bytes.Buffer
	if err := writeSections(&buf, "incremental", 1, solution, []record.Record{{A: 1}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	back, err := readSections(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.solution) != len(solution) || len(back.workset) != 1 {
		t.Fatalf("round trip lost records: %d/%d", len(back.solution), len(back.workset))
	}
	// Every proper prefix must error (torn file), never panic or
	// silently return partial state.
	for _, cut := range []int{len(full) - 1, len(full) / 2, 30, 21} {
		if _, err := readSections(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

// TestCheckpointStreamingWrite checks the chunked encoding: a section
// larger than one frame must produce multiple bounded frames, and the
// writer must never hold more than ~one frame of encoded bytes.
func TestCheckpointStreamingWrite(t *testing.T) {
	n := 3*checkpointChunk + 17
	solution := manyRecords(n)
	var buf bytes.Buffer
	if err := writeSections(&buf, "bulk", 2, solution, nil); err != nil {
		t.Fatal(err)
	}
	cr, err := newCheckpointReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var back []record.Record
	frames := 0
	if err := cr.ReadSection(func(b record.Batch) error {
		if len(b) > checkpointChunk {
			t.Fatalf("frame of %d records exceeds the %d-record chunk", len(b), checkpointChunk)
		}
		frames++
		back = append(back, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != 4 || len(back) != n {
		t.Fatalf("solution: %d records in %d frames, want %d in 4", len(back), frames, n)
	}
	for i, r := range back {
		if !r.Equal(solution[i]) {
			t.Fatalf("record %d: %v != %v", i, r, solution[i])
		}
	}
}

// TestCheckpointFlushRefusesOpenSection: Flush before EndSection is an
// error however many records the open section holds — including a
// multiple of the chunk size, where Append has already emitted every
// frame and nothing is buffered — since the file it would leave has no
// end marker and ReadSection rejects it.
func TestCheckpointFlushRefusesOpenSection(t *testing.T) {
	for _, n := range []int{1, checkpointChunk, 2 * checkpointChunk} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeCheckpoint(&buf, "bulk", 0, func(cw *checkpointWriter) error {
				for _, r := range manyRecords(n) {
					if err := cw.Append(r); err != nil {
						return err
					}
				}
				if err := cw.Flush(); err == nil {
					t.Fatalf("Flush with %d records in an open section returned nil", n)
				}
				return cw.EndSection()
			}); err != nil {
				t.Fatalf("Flush after EndSection: %v", err)
			}
			cr, err := newCheckpointReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			if err := cr.ReadSection(func(b record.Batch) error { got += len(b); return nil }); err != nil || got != n {
				t.Fatalf("read back %d records (%v), want %d", got, err, n)
			}
		})
	}
}

func manyRecords(n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{A: int64(i), B: int64(i % 97), X: float64(i) / 3}
	}
	return out
}

// FuzzCheckpointRead feeds arbitrary bytes through the section reader:
// it must never panic, and any two-section file it accepts must
// round-trip through the section writer.
func FuzzCheckpointRead(f *testing.F) {
	seed := func(kind string, iteration uint64, solution, workset []record.Record) []byte {
		var buf bytes.Buffer
		writeSections(&buf, kind, iteration, solution, workset)
		return buf.Bytes()
	}
	f.Add(seed("bulk", 1, manyRecords(5), nil))
	f.Add(seed("incremental", 0, manyRecords(2), manyRecords(3))[:40])
	f.Add([]byte{0x57, 0x4c, 0x46, 0x53, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readSections(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeSections(&buf, got.kind, got.iteration, got.solution, got.workset); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		back, err := readSections(&buf)
		if err != nil {
			t.Fatalf("re-encoded file rejected: %v", err)
		}
		if back.kind != got.kind || back.iteration != got.iteration ||
			len(back.solution) != len(got.solution) || len(back.workset) != len(got.workset) {
			t.Fatal("round trip changed the header or record counts")
		}
	})
}

func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := writeFileDurable(osFS{}, path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// A failing writer must leave neither the target nor the temp file.
	bad := filepath.Join(dir, "bad.bin")
	if err := writeFileDurable(osFS{}, bad, func(io.Writer) error {
		return io.ErrClosedPipe
	}); err == nil {
		t.Fatal("writer error swallowed")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed write left target: %v", err)
	}
	if _, err := os.Stat(bad + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left temp: %v", err)
	}
}
