package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

func durableCfg(dir string, m *metrics.Counters) ViewConfig {
	return ViewConfig{
		Config:  iterative.Config{Parallelism: 2, Metrics: m},
		Durable: true,
		DataDir: dir,
	}
}

// chain returns insert mutations for a path graph 0-1-...-n.
// listSnapshots is the snapshot seqs in a view directory on disk, newest
// first.
func listSnapshots(dir string) ([]uint64, error) {
	vf, err := readViewDir(osFS{}, dir)
	return vf.snaps, err
}

func chain(n int64) []Mutation {
	var out []Mutation
	for i := int64(0); i < n; i++ {
		out = append(out, InsertEdge(i, i+1))
	}
	return out
}

func mustComp(t *testing.T, v *LiveView, vertex, want int64) {
	t.Helper()
	r, ok := v.Query(vertex)
	if !ok {
		t.Fatalf("vertex %d missing from solution", vertex)
	}
	if r.B != want {
		t.Fatalf("component(%d) = %d, want %d", vertex, r.B, want)
	}
}

// TestDurableCreateCloseReopen: Close writes no snapshot and rotates
// nothing, so the next OpenView replays exactly the log frames past the
// newest snapshot (Create's, at seq 1) and comes back to the solution the
// view had before the Close.
func TestDurableCreateCloseReopen(t *testing.T) {
	dir := t.TempDir()
	var m metrics.Counters
	v, err := OpenView("cc", CC(), chain(4), durableCfg(dir, &m))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	want := record.EncodeBatch(nil, v.Snapshot())
	snaps, err := listSnapshots(filepath.Join(dir, "cc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if m.WALAppends.Load() != 2 { // initial frame + one mutation batch
		t.Fatalf("WALAppends = %d, want 2", m.WALAppends.Load())
	}
	if after, _ := listSnapshots(filepath.Join(dir, "cc")); !slices.Equal(after, snaps) {
		t.Fatalf("Close changed the snapshots: %v -> %v", snaps, after)
	}

	v2, err := OpenView("cc", CC(), nil, durableCfg(dir, &m))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	mustComp(t, v2, 4, 0)
	mustComp(t, v2, 11, 10)
	st := v2.Stats()
	if !st.Durable {
		t.Fatal("recovered view not marked durable")
	}
	if st.RecoveredFrames != 1 {
		t.Fatalf("reopen after Close replayed %d frames, want 1 (the frame past the snapshot)", st.RecoveredFrames)
	}
	if got := record.EncodeBatch(nil, v2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("reopen after Close reached a different solution")
	}
}

func TestRecoveryReplaysAcknowledgedMutations(t *testing.T) {
	dir := t.TempDir()
	var m metrics.Counters
	cfg := durableCfg(dir, &m)
	cfg.BatchSize = 1 << 30 // flush only on demand
	v, err := OpenView("cc", CC(), chain(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One flushed batch, one acknowledged-but-unflushed batch.
	if err := v.Mutate(InsertEdge(20, 21), InsertEdge(21, 22)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(22, 4)); err != nil {
		t.Fatal(err)
	}
	v.Kill() // hard crash: pending batch never flushed

	v2, err := OpenView("cc", CC(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	// The unflushed-but-acknowledged insert must be recovered: 22 joins
	// the 0..4 component through edge (22,4).
	mustComp(t, v2, 22, 0)
	mustComp(t, v2, 20, 0)
	if got := v2.Stats().RecoveredFrames; got == 0 {
		t.Fatal("recovery should have replayed WAL frames")
	}
	if m.RecoveryReplays.Load() == 0 {
		t.Fatal("RecoveryReplays counter not bumped")
	}
}

func TestRecoveryTruncatesTornTailToAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, nil)
	cfg.BatchSize = 1 << 30
	v, err := OpenView("cc", CC(), chain(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two acknowledged batches beyond the base snapshot.
	if err := v.Mutate(InsertEdge(10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(11, 0)); err != nil {
		t.Fatal(err)
	}
	v.Kill()

	// Simulate a crash mid-append: cut into the last frame. The damaged
	// frame was never fully written, so its batch counts as unacked.
	walPath := filepath.Join(dir, "cc", walFileName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	v2, err := OpenView("cc", CC(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the acknowledged prefix: (10,11) replayed, (11,0) lost with
	// the torn frame — 11 stays labeled 10, NOT merged into component 0.
	mustComp(t, v2, 11, 10)
	mustComp(t, v2, 2, 0)
	if got := v2.Stats().RecoveredFrames; got != 1 {
		t.Fatalf("replayed %d frames, want exactly the 1 intact frame", got)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn bytes must be gone from disk: the log ends right after the
	// intact frame, which stays there (neither recovery nor Close writes a
	// snapshot to fold it into).
	fi, err = os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(osFS{}, walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if w.size != fi.Size() || w.seq != w.base+1 {
		t.Fatalf("log holds frames %d..%d in %d of its %d bytes, want the one intact frame and nothing after it",
			w.base+1, w.seq, w.size, fi.Size())
	}
}

func TestSnapshotCadenceAndRotation(t *testing.T) {
	dir := t.TempDir()
	var m metrics.Counters
	cfg := durableCfg(dir, &m)
	v, err := OpenView("cc", CC(), chain(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	base := m.SnapshotsWritten.Load() // the create-time snapshot
	for i := int64(0); i < 2*snapshotEveryFlushes; i++ {
		if err := v.Mutate(InsertEdge(100+i, 200+i)); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.SnapshotsWritten.Load() - base; got != 2 {
		t.Fatalf("%d flushes at cadence %d wrote %d snapshots, want 2", 2*snapshotEveryFlushes, snapshotEveryFlushes, got)
	}
	// All flushed state is snapshotted and no mutations are pending, so
	// the log must have rotated to empty.
	if st := v.Stats(); st.WALBytes != walHeaderSize {
		t.Fatalf("WAL not rotated: %d bytes", st.WALBytes)
	}
	// At most two snapshot files are retained.
	snaps, err := listSnapshots(filepath.Join(dir, "cc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("%d snapshot files retained, want <= 2", len(snaps))
	}
}

func TestRecoveryFallsBackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, nil)
	v, err := OpenView("cc", CC(), chain(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(50, 51)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v.Kill()

	// Corrupt the newest snapshot; its predecessor plus the WAL must
	// still recover... except the WAL rotated at the newest snapshot, so
	// the fallback cannot bridge the gap — recovery must fail loudly,
	// not silently lose the acknowledged edge.
	vdir := filepath.Join(dir, "cc")
	snaps, err := listSnapshots(vdir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want 2 snapshots, have %v (%v)", snaps, err)
	}
	newest := filepath.Join(vdir, snapshotName(snaps[0]))
	if err := os.Truncate(newest, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView("cc", CC(), nil, cfg); err == nil {
		t.Fatal("recovery with an unbridgeable snapshot gap must fail")
	}

	// Removing the rotated log as well makes the previous snapshot
	// authoritative again: recovery succeeds with its (older) state. The
	// edge behind the two lost files is gone — fallback restores the
	// newest state that still exists, it cannot invent the rest.
	if err := os.Remove(filepath.Join(vdir, walFileName)); err != nil {
		t.Fatal(err)
	}
	v2, err := OpenView("cc", CC(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	mustComp(t, v2, 2, 0)
	if _, ok := v2.Query(51); ok {
		t.Fatal("vertex 51 resurrected from a snapshot that never held it")
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []Mutation{
		InsertWeightedEdge(1, 2, 0.5),
		DeleteEdge(3, 4),
		addVertex(9),
		deleteVertex(7),
	}
	back, err := recordsToMutations(mutationsToRecords(muts))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(muts) {
		t.Fatalf("%d mutations, want %d", len(back), len(muts))
	}
	for i := range muts {
		if back[i] != muts[i] {
			t.Fatalf("mutation %d: %+v != %+v", i, back[i], muts[i])
		}
	}
	if _, err := recordsToMutations(record.Batch{{Tag: 200}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSchedulerRecoverRestoresViews(t *testing.T) {
	dir := t.TempDir()
	mkSched := func() *Scheduler {
		return NewScheduler(SchedulerConfig{
			DataDir:     dir,
			DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}},
		})
	}
	s := mkSched()
	if _, err := s.Create("social", CC(), chain(3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("paths", SSSP(0), []Mutation{
		InsertWeightedEdge(0, 1, 2), InsertWeightedEdge(1, 2, 3),
	}, nil); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("social")
	if err := v.Mutate(InsertEdge(3, 30)); err != nil {
		t.Fatal(err)
	}
	// Hard-kill both views (no flush, no final snapshot), as a crashed
	// server would.
	for _, name := range s.Names() {
		vv, _ := s.Get(name)
		vv.Kill()
	}

	s2 := mkSched()
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n != 2 {
		t.Fatalf("recovered %d views, want 2", n)
	}
	social, ok := s2.Get("social")
	if !ok {
		t.Fatal("social view not recovered")
	}
	mustComp(t, social, 30, 0) // the unflushed insert survived via the WAL
	paths, ok := s2.Get("paths")
	if !ok {
		t.Fatal("paths view not recovered")
	}
	if r, ok := paths.Query(2); !ok || r.X != 5 {
		t.Fatalf("dist(2) after recovery = %v (ok=%v), want 5", r.X, ok)
	}

	// Dropping a durable view deletes its on-disk state: a third
	// scheduler must not resurrect it.
	if err := s2.Drop("social"); err != nil {
		t.Fatal(err)
	}
	s3 := mkSched()
	if n, err := s3.Recover(); err != nil || n != 1 {
		t.Fatalf("after drop: recovered %d views (%v), want 1", n, err)
	}
	s3.Close()
}

// TestRecoverMetaWithAutoEngineFlag: a meta.json written by a binary that
// still had the AutoEngine option carries "auto_engine":true, a field this
// binary does not know. Recover rejects the recipe whole, as
// errUnknownForm, instead of reading the part it knows — also under a
// scheduler that shards its views over workers — and leaves the view's
// directory in place.
func TestRecoverMetaWithAutoEngineFlag(t *testing.T) {
	for name, workers := range map[string][]string{"plain": nil, "sharded": startWorkers(t, 1)} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := NewScheduler(SchedulerConfig{DataDir: dir,
				DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}}})
			v, err := s.Create("old", CC(), chain(3), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Mutate(InsertEdge(3, 30)); err != nil {
				t.Fatal(err)
			}
			v.Kill()

			metaPath := filepath.Join(dir, "old", metaFileName)
			raw, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			legacy := strings.Replace(string(raw), "{", `{"auto_engine":true,`, 1)
			if err := os.WriteFile(metaPath, []byte(legacy), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := NewScheduler(SchedulerConfig{DataDir: dir,
				DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: workers}})
			defer s2.Close()
			if n, err := s2.Recover(); !errors.Is(err, errUnknownForm) || n != 0 {
				t.Fatalf("recovered %d views (%v), want 0 and errUnknownForm", n, err)
			}
			if _, err := os.Stat(metaPath); err != nil {
				t.Fatalf("the rejected view's meta.json is gone: %v", err)
			}
		})
	}
}

func TestSchedulerCreateClearsCrashedCreateLeftovers(t *testing.T) {
	dir := t.TempDir()
	s := NewScheduler(SchedulerConfig{
		DataDir:     dir,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}},
	})
	// Simulate a create that crashed after writing its WAL (edges 0-1)
	// but before the meta.json commit marker.
	crashed, err := OpenView("v", CC(), []Mutation{InsertEdge(0, 1)},
		ViewConfig{Config: iterative.Config{Parallelism: 1}, Durable: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	crashed.Kill()
	// Recover must not resurrect it (nothing was acknowledged)...
	if n, err := s.Recover(); err != nil || n != 0 {
		t.Fatalf("recovered %d views (%v), want 0", n, err)
	}
	// ...and a fresh Create of the same name must serve *its* edges, not
	// the crashed attempt's.
	v, err := s.Create("v", CC(), []Mutation{InsertEdge(7, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustComp(t, v, 8, 7)
	if _, ok := v.Query(0); ok {
		t.Fatal("crashed create's edge resurrected into the new view")
	}
}

func TestDurableRequiresDataDir(t *testing.T) {
	_, err := OpenView("x", CC(), nil, ViewConfig{Durable: true})
	if err == nil {
		t.Fatal("Durable without DataDir accepted")
	}
	_, err = OpenView("a/b", CC(), nil, ViewConfig{Durable: true, DataDir: t.TempDir()})
	if err == nil {
		t.Fatal("path separator in durable view name accepted")
	}
}

// TestCheckpointStreams: a snapshot streams the solution into its file
// partition by partition and never materializes it. Across a Checkpoint
// of a view holding 800 k solution records (400 k two-vertex components,
// so the cold build converges at once) the bytes allocated must stay
// under an eighth of the solution's encoded size; a snapshot that
// collected the solution first would allocate all of it.
func TestCheckpointStreams(t *testing.T) {
	const pairs = 400_000
	initial := make([]Mutation, pairs)
	for i := range initial {
		initial[i] = InsertEdge(int64(2*i), int64(2*i+1))
	}
	v, err := OpenView("pairs", CC(), initial, durableCfg(t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	initial = nil

	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)

	records := int64(len(v.Snapshot()))
	if records != 2*pairs {
		t.Fatalf("view holds %d solution records, want %d", records, 2*pairs)
	}
	encoded := records * record.EncodedSize
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Checkpoint allocated %d bytes for a %d-byte solution (%.3f)", allocated, encoded, float64(allocated)/float64(encoded))
	if allocated*8 >= encoded {
		t.Fatalf("Checkpoint allocated %d bytes, at least 1/8 of the %d-byte solution: it materializes the solution", allocated, encoded)
	}
}
