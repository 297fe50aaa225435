package live

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// Durability for live views (§4.2 applied to the serving layer): a
// converged fixpoint under streaming mutations is exactly the "logged
// loop state" the paper's recovery discussion wants — so the serving
// layer logs it. A durable view owns DataDir/<name>/:
//
//	wal.log               header (magic, version, baseSeq) + frames
//	snapshot-<seq>.snap   the snapshot covering WAL frames 1..seq
//	meta.json             the view's recipe and Create's commit marker (scheduler.go)
//
// Mutate appends its batch to the log as one CRC32 frame and fsyncs it
// before returning, so an acknowledged mutation survives a crash. Every
// snapshotEveryFlushes (32) flushes or snapshotEveryBytes (4 MiB) of log
// growth, the graph and the resident solution stream into a snapshot
// (checkpoint.go's section writer), the two newest snapshots are kept, and
// the log rotates. OpenView recovers: the newest readable snapshot streams
// into a fresh session, the log tail beyond it replays through the
// ordinary maintenance path, and a torn tail is truncated. Recovery writes
// no snapshot: the replayed frames count toward the cadence above as if
// they had been flushed since the loaded snapshot, so the next snapshot
// comes when it would have without the restart. Only a recovery that
// passed over an unreadable snapshot writes one, so the two kept
// snapshots are readable again. Stopping is a crash too (crash-only):
// LiveView.Close writes nothing, so a clean restart replays the frames
// past the newest snapshot like any other, and the cadence bounds that
// replay.
//
// Every file-system call goes through fsys (fsys.go). Beside Mutate's and
// a truncated torn tail's, these are all the fsyncs: a whole file
// (snapshot, fresh log, meta.json) is written to <file>.tmp, fsynced,
// renamed, and its directory fsynced (writeFileDurable); Create fsyncs
// DataDir behind the view's new directory; Drop deletes meta.json, fsyncs
// the view directory, deletes the rest and fsyncs DataDir (removeViewDir),
// so a crash can resurrect no dropped view. A <file>.tmp a crash leaves is
// deleted by the next recovery. A log whose rotation failed after its
// rename refuses further appends. TestEveryCrashPoint crashes between
// every two of these calls, and after a clean Scheduler.Close.
//
// A snapshot is one file, whatever the view's topology: kind live:<algo>,
// four sections — [vertices][edges][solution][hosts]. The solution section
// holds every host's partitions, the coordinator's first and then each
// worker's in host order; the hosts section is always {1}. Because the
// loader streams the solution into whatever session the recovering config
// opens, a view may come back on a different worker count.
//
// Frame seq numbers are absolute and monotone across rotations: the log
// header's baseSeq is the seq of the frame *preceding* the first frame in
// the file, so a rotated log (baseSeq = snapshot seq, no frames) and its
// snapshot tile the history exactly.

const (
	walFileName   = "wal.log"
	walMagic      = uint32(0x4c415753) // "SWAL"
	walVersion    = uint32(1)
	walHeaderSize = 16

	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".snap"
	// The kind prefix tags snapshot files with the maintainer that wrote
	// them, so recovery with the wrong algorithm fails loudly.
	snapshotKindPrefix = "live:"
)

var errWALClosed = errors.New("live: wal is closed")

// --- mutation codec ------------------------------------------------------

// mutationsToRecords packs a mutation batch into the record model the WAL
// frames carry: A=Src, B=Dst, X=Weight, Tag=Op.
func mutationsToRecords(muts []Mutation) record.Batch {
	out := make(record.Batch, len(muts))
	for i, m := range muts {
		out[i] = record.Record{A: m.Src, B: m.Dst, X: m.Weight, Tag: uint8(m.Op)}
	}
	return out
}

// recordsToMutations unpacks a WAL frame, rejecting unknown ops (a frame
// with a valid checksum but an impossible tag is corruption, not input).
func recordsToMutations(b record.Batch) ([]Mutation, error) {
	out := make([]Mutation, len(b))
	for i, r := range b {
		op := Op(r.Tag)
		if op < OpInsertEdge || op > OpDeleteVertex {
			return nil, fmt.Errorf("live: wal frame carries unknown op %d", r.Tag)
		}
		out[i] = Mutation{Op: op, Src: r.A, Dst: r.B, Weight: r.X}
	}
	return out, nil
}

// --- write-ahead log -----------------------------------------------------

// wal is one view's append-only mutation log. All methods are safe for
// concurrent use; appends additionally serialize with the view's pending
// lock (the caller), so frame order matches micro-batch order exactly.
type wal struct {
	mu   sync.Mutex
	fs   fsys
	path string
	f    file
	base uint64 // seq of the frame preceding the first frame in the file
	seq  uint64 // seq of the last appended/validated frame
	size int64  // current file size
	buf  []byte // reusable frame-encode buffer
	err  error  // sticky failure: a log that failed a write stops accepting
}

func walHeader(base uint64) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], base)
	return hdr[:]
}

// createWAL durably creates a fresh log whose frames will start at
// base+1.
func createWAL(fs fsys, path string, base uint64) (*wal, error) {
	if _, err := writeFileDurable(fs, path, func(w io.Writer) error {
		_, err := w.Write(walHeader(base))
		return err
	}); err != nil {
		return nil, fmt.Errorf("live: creating wal: %w", err)
	}
	return openWAL(fs, path, nil)
}

// openWAL opens a log for appends — every log, fresh, rotated or
// recovered — validating it on the way: each intact frame invokes replay
// (in seq order, with the file offset just past the frame), and the first
// torn or corrupt frame truncates the file at the end of the valid prefix.
// A replay error aborts the open.
func openWAL(fs fsys, path string, replay func(seq uint64, end int64, b record.Batch) error) (*wal, error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*wal, error) {
		f.Close()
		return nil, err
	}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fail(fmt.Errorf("live: wal header truncated: %w", err))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != walMagic {
		return fail(fmt.Errorf("live: not a wal (magic %#x)", m))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != walVersion {
		return fail(fmt.Errorf("live: unsupported wal version %d", v))
	}
	w := &wal{fs: fs, path: path, f: f, base: binary.LittleEndian.Uint64(hdr[8:16])}
	w.seq = w.base
	fr := record.NewFrameReader(f)
	torn := false
	for {
		b, ferr := fr.Next()
		if ferr == io.EOF {
			break
		}
		if errors.Is(ferr, record.ErrCorruptFrame) {
			torn = true
			break
		}
		if ferr != nil {
			return fail(ferr)
		}
		w.seq++
		if replay != nil {
			if err := replay(w.seq, walHeaderSize+fr.ValidOffset(), b); err != nil {
				return fail(err)
			}
		}
	}
	w.size = walHeaderSize + fr.ValidOffset()
	if torn {
		if err := f.Truncate(w.size); err != nil {
			return fail(fmt.Errorf("live: truncating torn wal tail: %w", err))
		}
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	return w, nil
}

// Append durably logs one mutation batch: the frame is written and
// fsynced before the new seq is returned. After a write or sync failure
// the log is poisoned — the file may hold a partial frame, so accepting
// further appends would bury valid frames behind garbage.
func (w *wal) Append(b record.Batch) (seq uint64, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, 0, w.err
	}
	w.buf = record.AppendFrame(w.buf[:0], b)
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = err
		return 0, 0, err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return 0, 0, err
	}
	w.seq++
	w.size += int64(len(w.buf))
	return w.seq, len(w.buf), nil
}

// Seq returns the seq of the last durably appended frame.
func (w *wal) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SizeBytes returns the log's current size.
func (w *wal) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Rotate starts a fresh log once every appended frame is covered by the
// snapshot at upTo. If frames beyond upTo exist (mutations acknowledged
// while the snapshot was being written), rotation is skipped — the next
// snapshot will catch up. The fresh header is written durably through
// the same helper snapshot files use (writeFileDurable).
func (w *wal) Rotate(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.seq != upTo {
		return nil
	}
	if w.base == upTo && w.size == walHeaderSize {
		return nil // already fresh
	}
	// The fresh header is renamed over the path while the old descriptor
	// is still open: a failure before the rename leaves the old log intact
	// and appendable — rotation failing transiently (ENOSPC on the temp
	// file, say) must not poison a healthy log. After the rename the old
	// descriptor names the unlinked file, so appends there would be
	// acknowledged and lost — poison.
	if renamed, err := writeFileDurable(w.fs, w.path, func(wr io.Writer) error {
		_, err := wr.Write(walHeader(upTo))
		return err
	}); err != nil {
		if renamed {
			w.err = err
		}
		return err
	}
	fresh, err := openWAL(w.fs, w.path, nil)
	w.f.Close()
	if err != nil {
		w.err = err // the path names the fresh log, which cannot be opened
		return err
	}
	w.f = fresh.f
	w.base = upTo
	w.size = walHeaderSize
	return nil
}

// Close stops the log; later appends fail.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	w.err = errWALClosed
	return err
}

// --- snapshots -----------------------------------------------------------

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapshotPrefix, seq, snapshotSuffix)
}

// parseSnapshotName inverts snapshotName: the seq a snapshot file covers.
func parseSnapshotName(name string) (seq uint64, ok bool) {
	body, isSnap := strings.CutPrefix(name, snapshotPrefix)
	body, hasSuffix := strings.CutSuffix(body, snapshotSuffix)
	if !isSnap || !hasSuffix {
		return 0, false
	}
	seq, err := strconv.ParseUint(body, 10, 64)
	return seq, err == nil
}

// viewFiles is what a view's directory holds: the snapshot seqs (the
// recovery points, newest first), whether there is a log and a meta.json,
// and the junk nothing reads: the temporaries of writes a crash cut short
// and the per-host siblings of earlier binaries (legacyShardName).
type viewFiles struct {
	snaps     []uint64
	wal, meta bool
	junk      []string
}

// readViewDir sorts the names in a view's directory by what they hold,
// leaving any other name out. A missing directory holds nothing.
func readViewDir(fs fsys, dir string) (viewFiles, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil && !notExist(err) {
		return viewFiles{}, err
	}
	var vf viewFiles
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSnapshotName(name); ok {
			vf.snaps = append(vf.snaps, seq)
		}
		if strings.HasSuffix(name, ".tmp") || legacyShardName(name) {
			vf.junk = append(vf.junk, name)
		}
		vf.wal = vf.wal || name == walFileName
		vf.meta = vf.meta || name == metaFileName
	}
	sort.Slice(vf.snaps, func(i, j int) bool { return vf.snaps[i] > vf.snaps[j] })
	return vf, nil
}

// legacyShardName reports whether name has the exact shape of a per-host
// snapshot sibling, snapshot-<seq>.shard<h>.snap, which binaries wrote
// for sharded views before a snapshot became one file.
func legacyShardName(name string) bool {
	body, isSnap := strings.CutPrefix(name, snapshotPrefix)
	body, hasSuffix := strings.CutSuffix(body, snapshotSuffix)
	seq, host, isShard := strings.Cut(body, ".shard")
	_, seqErr := strconv.ParseUint(seq, 10, 64)
	_, hostErr := strconv.ParseUint(host, 10, 64)
	return isSnap && hasSuffix && isShard && seqErr == nil && hostErr == nil
}

// pruneSnapshots deletes all snapshots older than the newest two: the one
// just written plus its predecessor, kept as the fallback recovery reads
// when the newest proves unreadable. It leaves any other name alone — a
// temporary included, which may be a write in flight (saveRecipe's).
func pruneSnapshots(fs fsys, dir string) {
	vf, err := readViewDir(fs, dir)
	if err != nil {
		return
	}
	for _, seq := range vf.snaps[min(2, len(vf.snaps)):] {
		fs.Remove(filepath.Join(dir, snapshotName(seq)))
	}
}

// writeGraph appends the graph as two checkpoint sections: the vertices,
// then the edges *in edge-slice order*. It is the graph's one encoding — a
// snapshot's leading sections and the payload of view_open. Replicas
// rebuild by replaying AddVertex/AddEdge in this order and then apply every
// later mutation batch in arrival order, so their internal edge slices —
// and therefore the specs derived from them — stay identical to the
// coordinator's.
func writeGraph(cw *checkpointWriter, gs *GraphState) error {
	for _, vid := range gs.Vertices() {
		if err := cw.Append(record.Record{A: vid}); err != nil {
			return err
		}
	}
	if err := cw.EndSection(); err != nil {
		return err
	}
	for _, e := range gs.edges {
		if err := cw.Append(record.Record{A: e.Src, B: e.Dst, X: e.Weight}); err != nil {
			return err
		}
	}
	return cw.EndSection()
}

// readGraph rebuilds a graph from writeGraph's two sections.
func readGraph(cr *checkpointReader) (*GraphState, error) {
	gs := NewGraphState()
	if err := cr.ReadSection(func(b record.Batch) error {
		for _, r := range b {
			gs.AddVertex(r.A)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("live: graph vertices: %w", err)
	}
	if err := cr.ReadSection(func(b record.Batch) error {
		for _, r := range b {
			gs.AddEdge(r.A, r.B, r.X)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("live: graph edges: %w", err)
	}
	return gs, nil
}

// Profiler labels of the log's append and fsync in Mutate, {layer=wal,
// op=append}, and of a snapshot, {layer=wal, op=snapshot}, built once.
// Each comes off again afterwards, as the runtime's and the merge's do.
var (
	walAppendLabels   = pprof.WithLabels(context.Background(), pprof.Labels("layer", "wal", "op", "append"))
	walSnapshotLabels = pprof.WithLabels(context.Background(), pprof.Labels("layer", "wal", "op", "snapshot"))
)

// snapshotLocked persists a snapshot covering WAL frames 1..flushedSeq,
// prunes obsolete snapshots, and rotates the log when possible. Caller
// holds the maintenance lock, so the solution set is converged. The one
// file is written to a temporary name and renamed into place, so a seq
// that lists is a complete snapshot. Its solution section streams through
// session.EachSolution — the coordinator's partitions, then each worker's
// as it is collected: peak memory is one worker's share plus the writer's
// buffer, never a second copy of the whole solution (spilled partitions
// stream from disk to disk).
func (v *LiveView) snapshotLocked() error {
	snapStart := time.Now()
	pprof.SetGoroutineLabels(walSnapshotLabels)
	defer pprof.SetGoroutineLabels(context.Background())
	d := v.dur
	seq := d.flushedSeq
	_, err := writeFileDurable(v.cfg.fs, filepath.Join(d.dir, snapshotName(seq)), func(w io.Writer) error {
		return writeCheckpoint(w, snapshotKindPrefix+v.m.Name(), seq, func(cw *checkpointWriter) error {
			if err := writeGraph(cw, v.gs); err != nil {
				return err
			}
			if err := v.sess.EachSolution(cw.Append); err != nil {
				return err
			}
			if err := cw.EndSection(); err != nil {
				return err
			}
			if err := cw.Append(record.Record{A: 1}); err != nil { // the hosts section
				return err
			}
			return cw.EndSection()
		})
	})
	if err != nil {
		return fmt.Errorf("live: view %q snapshot: %w", v.name, err)
	}
	d.flushesSinceSnap = 0
	d.snapshots++
	if m := v.cfg.Metrics; m != nil {
		m.SnapshotsWritten.Add(1)
	}
	pruneSnapshots(v.cfg.fs, d.dir)
	if err := d.wal.Rotate(seq); err != nil {
		return err
	}
	d.walBytesAtSnap = d.wal.SizeBytes()
	if v.ring != nil {
		v.snapHist.ObserveSince(snapStart)
		v.span(obs.PhaseSnapshot, v.name, snapStart)
	}
	return nil
}

// errSession marks a recovery failure of the environment — a worker that
// cannot be reached, a plan the hosts disagree on — as opposed to one of
// the snapshot's bytes: an older snapshot would fail the same way, so the
// loader's caller gives up instead of silently recovering older state.
var errSession = errors.New("live: recovery session")

// readSnapshotFile is the one place a snapshot file is opened for reading.
// The header must carry kind and the seq the file's name claims — a renamed
// or stale file is rejected, not trusted — and nothing may trail the
// sections body consumes.
func readSnapshotFile(fs fsys, path string, seq uint64, kind string, body func(cr *checkpointReader) error) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr, err := newCheckpointReader(f)
	if err != nil {
		return err
	}
	if cr.kind != kind {
		return fmt.Errorf("live: snapshot kind %q, view wants %q", cr.kind, kind)
	}
	if cr.iteration != seq {
		return fmt.Errorf("live: %s covers seq %d", filepath.Base(path), cr.iteration)
	}
	if err := body(cr); err != nil {
		return err
	}
	if err := cr.ReadSection(func(record.Batch) error { return nil }); err != io.EOF {
		return fmt.Errorf("live: trailing data in %s", filepath.Base(path))
	}
	return nil
}

// loadSnapshot recovers the view from the snapshot at seq, on whatever
// topology cfg names: the graph sections rebuild the graph, the session
// opens over it with an empty solution and no cold fixpoint, and the
// solution section streams frame by frame through session.Load, which
// partitions the records under the session's own placement. Mirroring the
// writer, at most one decoded frame of solution exists outside the sets.
// A failure after the session opened kills the half-loaded session; errors
// of the session itself are marked errSession, everything else is the
// snapshot's fault (corrupt, torn, or not a one-file snapshot) and the
// caller falls back to an older one.
func loadSnapshot(dir string, seq uint64, name string, m Maintainer, cfg ViewConfig) (*LiveView, error) {
	var v *LiveView
	err := readSnapshotFile(cfg.fs, filepath.Join(dir, snapshotName(seq)), seq, snapshotKindPrefix+m.Name(), func(cr *checkpointReader) error {
		gs, err := readGraph(cr)
		if err != nil {
			return err
		}
		if v, err = assembleView(name, m, cfg, gs, true); err != nil {
			return fmt.Errorf("%w: %w", errSession, err)
		}
		if err := cr.ReadSection(func(b record.Batch) error {
			if err := v.sess.Load(b); err != nil {
				return fmt.Errorf("%w: %w", errSession, err)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("live: snapshot solution: %w", err)
		}
		// The hosts section: exactly {1}. Any other count, or none, is a
		// snapshot of an earlier binary — a multi-file one, whose other
		// hosts' partitions this loader never reads, or one written before
		// the section existed.
		n, hosts := 0, int64(0)
		err = cr.ReadSection(func(b record.Batch) error {
			if n += len(b); n == 1 {
				hosts = b[0].A
			}
			return nil
		})
		if err == io.EOF || err == nil && (n != 1 || hosts != 1) {
			err = fmt.Errorf("%w: snapshot %d is not a one-file snapshot (%d hosts records, first %d)", errUnknownForm, seq, n, hosts)
		}
		return err
	})
	if err != nil && v != nil {
		v.sess.hangUp()
		return nil, err
	}
	return v, err
}

// --- open / create / recover --------------------------------------------

// validateViewName restricts durable view names to filesystem-safe
// tokens, since each names a directory under DataDir.
func validateViewName(name string) error {
	if name == "" {
		return fmt.Errorf("live: view name must not be empty")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("live: durable view name %q may only contain [A-Za-z0-9._-]", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("live: durable view name %q is reserved", name)
	}
	return nil
}

// OpenView builds or recovers a view. Without ViewConfig.Durable it is
// NewView. With durability, the view owns DataDir/<name>: when that
// directory already holds a log or snapshot, the view is *recovered* —
// the latest valid snapshot is loaded, the WAL tail beyond it is
// replayed through the ordinary maintenance path and stays in the log
// for the next periodic snapshot, and torn tails are truncated at the
// last valid frame; `initial` is ignored (the durable history wins).
// Otherwise the view is created fresh: the initial mutations become the
// log's first frame, the cold fixpoint runs, and a base snapshot is
// written, so a crash at any later point recovers every acknowledged
// mutation.
func OpenView(name string, m Maintainer, initial []Mutation, cfg ViewConfig) (*LiveView, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized().withObsDefaults(name)
	if !cfg.Durable {
		return newViewCore(name, m, initial, cfg)
	}
	if err := validateViewName(name); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.DataDir, name)
	vf, err := readViewDir(cfg.fs, dir)
	if err != nil {
		return nil, err
	}
	if vf.wal || len(vf.snaps) > 0 {
		return recoverView(name, m, cfg, dir, vf)
	}
	return createDurable(name, m, initial, cfg, dir)
}

// createDurable builds a fresh durable view. Durability before
// acknowledgment: the WAL (with the initial mutations as frame 1) is on
// disk before the cold fixpoint runs, so a crash mid-build recovers the
// accepted graph; the base snapshot then bounds that replay.
func createDurable(name string, m Maintainer, initial []Mutation, cfg ViewConfig, dir string) (*LiveView, error) {
	if err := cfg.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := cfg.fs.SyncDir(cfg.DataDir); err != nil { // or a crash may drop the whole view
		return nil, err
	}
	fail := func(err error) (*LiveView, error) {
		removeViewDir(cfg.fs, dir) // nothing was acknowledged; leave no half-view behind
		return nil, err
	}
	w, err := createWAL(cfg.fs, filepath.Join(dir, walFileName), 0)
	if err != nil {
		return nil, err
	}
	var walBytes int64
	if len(initial) > 0 {
		_, n, err := w.Append(mutationsToRecords(initial))
		if err != nil {
			w.Close()
			return fail(err)
		}
		walBytes = int64(n)
	}
	v, err := newViewCore(name, m, initial, cfg)
	if err != nil {
		w.Close()
		return fail(err)
	}
	v.dur = &durableState{dir: dir, wal: w, flushedSeq: w.Seq()}
	if m := cfg.Metrics; m != nil && len(initial) > 0 {
		m.WALAppends.Add(1)
		m.WALBytes.Add(walBytes)
	}
	if err := v.snapshotLocked(); err != nil {
		v.Close()
		return fail(err)
	}
	return v, nil
}

// removeViewDir deletes a view's directory so that no crash brings the
// view back: meta.json, Create's commit marker, goes first and durably,
// then the rest, and the parent is synced last.
func removeViewDir(fs fsys, dir string) error {
	err := fs.Remove(filepath.Join(dir, metaFileName))
	if err == nil {
		err = fs.SyncDir(dir)
	}
	if err != nil && !notExist(err) {
		return err
	}
	if err := fs.RemoveAll(dir); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(dir))
}

// recoverView rebuilds a durable view from the log and snapshots vf lists.
// Before it writes anything, it deletes the junk.
func recoverView(name string, m Maintainer, cfg ViewConfig, dir string, vf viewFiles) (*LiveView, error) {
	for _, junk := range vf.junk {
		cfg.fs.Remove(filepath.Join(dir, junk))
	}
	var (
		v       *LiveView
		snapSeq uint64
		skipped error // why the last unreadable snapshot was passed over
		err     error
	)
	for _, s := range vf.snaps {
		lv, lerr := loadSnapshot(dir, s, name, m, cfg)
		if errors.Is(lerr, errSession) {
			return nil, fmt.Errorf("live: recovering view %q: %w", name, lerr)
		}
		if lerr != nil {
			// An unreadable snapshot falls back to its predecessor; the
			// WAL base check below catches the case where the log no
			// longer reaches back that far.
			skipped = lerr
			continue
		}
		v, snapSeq = lv, s
		break
	}
	loaded := v != nil
	if !loaded {
		// No usable snapshot is the snapshot at seq 0 — an empty graph and
		// its fixpoint — and the log must carry the full history.
		if v, err = assembleView(name, m, cfg, NewGraphState(), false); err != nil {
			return nil, fmt.Errorf("live: recovering view %q: %w", name, err)
		}
	}

	var replayed int64
	atSnap := int64(walHeaderSize) // the log's size just past frame snapSeq
	walPath := filepath.Join(dir, walFileName)
	w, err := openWAL(cfg.fs, walPath, func(seq uint64, end int64, b record.Batch) error {
		if seq <= snapSeq {
			atSnap = end
			return nil // already folded into the snapshot
		}
		muts, err := recordsToMutations(b)
		if err != nil {
			return err
		}
		if err := v.applyLocked(muts); err != nil {
			return fmt.Errorf("replaying wal frame %d: %w", seq, err)
		}
		replayed++
		return nil
	})
	if notExist(err) && loaded {
		// Snapshot without a log (lost or never created): start a fresh
		// one at the snapshot's seq.
		w, err = createWAL(cfg.fs, walPath, snapSeq)
	}
	if err != nil {
		v.sess.hangUp()
		return nil, fmt.Errorf("live: recovering view %q: %w", name, err)
	}
	if w.base > snapSeq {
		w.Close()
		v.sess.hangUp()
		return nil, errors.Join(fmt.Errorf("live: view %q wal starts at frame %d but the best readable snapshot covers only %d",
			name, w.base+1, snapSeq), skipped)
	}

	v.dur = &durableState{
		dir: dir, wal: w, flushedSeq: w.Seq(), replayed: replayed,
		flushesSinceSnap: int(replayed), walBytesAtSnap: atSnap,
	}
	if mt := cfg.Metrics; mt != nil {
		mt.RecoveryReplays.Add(replayed)
	}
	// The replayed tail stays in the log for the next snapshot to fold in.
	// Only a recovery that passed over an unreadable snapshot writes one
	// now, so the fallback pair is two readable files again; otherwise the
	// prune a crash may have cut short is all that is left.
	if skipped == nil {
		pruneSnapshots(cfg.fs, dir)
	} else if err := v.snapshotLocked(); err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}
