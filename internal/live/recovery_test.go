package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/record"
	"repro/internal/runtime"
)

// A snapshot is one file with one reader, so these tests recover every
// directory on one host and on two: what wrote a directory must not decide
// who can read it.

// recoveryTopologies is the worker sets a directory is recovered under.
func recoveryTopologies(t *testing.T) map[string][]string {
	return map[string][]string{"1-host": nil, "2-host": startWorkers(t, 1)}
}

// solutionOf is the oracle: the converged solution of an in-memory view
// built from the given history.
func solutionOf(t *testing.T, m Maintainer, history ...[]Mutation) []byte {
	t.Helper()
	v, err := NewView("oracle", m, nil, ViewConfig{Config: iterative.Config{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, batch := range history {
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return record.EncodeBatch(nil, v.Snapshot())
}

func copyFile(t testing.TB, dst, src string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRenamedSnapshotIsNotTrusted: a base file whose header covers seq 1
// sits under the name of seq 3 (a stale copy, a botched restore). Trusting
// the name would skip the log frames 2..3 as "already folded in" and lose
// two acknowledged batches; the loader must reject the mismatch and fall
// back to the real snapshot.
func TestRenamedSnapshotIsNotTrusted(t *testing.T) {
	for topo, workers := range recoveryTopologies(t) {
		t.Run(topo, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir, nil)
			cfg.BatchSize = 1 << 30
			v, err := NewView("cc", CC(), chain(3), cfg) // frame 1, snapshot 1
			if err != nil {
				t.Fatal(err)
			}
			for _, mu := range []Mutation{InsertEdge(10, 11), InsertEdge(11, 3)} { // frames 2, 3
				if err := v.Mutate(mu); err != nil {
					t.Fatal(err)
				}
				if err := v.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			v.Kill()
			vdir := filepath.Join(dir, "cc")
			copyFile(t, filepath.Join(vdir, snapshotName(3)), filepath.Join(vdir, snapshotName(1)))

			cfg.Workers = workers
			v2, err := NewView("cc", CC(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer v2.Close()
			mustComp(t, v2, 11, 0)
			if got := v2.Stats().RecoveredFrames; got != 2 {
				t.Fatalf("replayed %d frames, want the 2 the real snapshot does not cover", got)
			}
		})
	}
}

// TestRecoverWithoutSnapshot: a directory whose snapshots are all gone is
// the snapshot at seq 0 — the whole log replays through the maintenance
// path into an empty view. When the log cannot reach back to frame 1, or
// is gone too, recovery fails rather than serving an emptier view.
func TestRecoverWithoutSnapshot(t *testing.T) {
	history := [][]Mutation{chain(4), {InsertEdge(10, 11), DeleteEdge(1, 2)}, {InsertEdge(11, 4)}}
	want := solutionOf(t, CC(), history...)
	for topo, workers := range recoveryTopologies(t) {
		t.Run(topo, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir, nil)
			cfg.BatchSize = 1 << 30
			v, err := NewView("cc", CC(), nil, cfg) // no frame: snapshot 0, log from frame 1
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range history {
				if err := v.Mutate(batch...); err != nil {
					t.Fatal(err)
				}
			}
			v.Kill()
			vdir := filepath.Join(dir, "cc")
			if err := os.Remove(filepath.Join(vdir, snapshotName(0))); err != nil {
				t.Fatal(err)
			}

			cfg.Workers = workers
			v2, err := NewView("cc", CC(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := record.EncodeBatch(nil, v2.Snapshot()); !bytes.Equal(got, want) {
				t.Fatal("log-only recovery diverged from the oracle")
			}
			if got := v2.Stats().RecoveredFrames; got != int64(len(history)) {
				t.Fatalf("replayed %d frames, want all %d", got, len(history))
			}
			v2.Kill()
			// Recovery writes no snapshot, so the log still carries the
			// whole history and the next open replays all of it again.
			if snaps, err := listSnapshots(vdir); err != nil || len(snaps) != 0 {
				t.Fatalf("log-only recovery wrote snapshots %v (%v)", snaps, err)
			}
			v3, err := NewView("cc", CC(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := v3.Stats().RecoveredFrames; got != int64(len(history)) {
				t.Fatalf("second recovery replayed %d frames, want all %d", got, len(history))
			}
			if err := v3.Checkpoint(); err != nil { // rotates the log to frame 4
				t.Fatal(err)
			}
			v3.Kill()

			snaps, err := listSnapshots(vdir)
			if err != nil || len(snaps) == 0 {
				t.Fatalf("the checkpoint left no snapshot: %v (%v)", snaps, err)
			}
			for _, s := range snaps {
				if err := os.Truncate(filepath.Join(vdir, snapshotName(s)), 10); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := NewView("cc", CC(), nil, cfg); err == nil {
				t.Fatal("a rotated log without a readable snapshot recovered")
			}
			if err := os.Remove(filepath.Join(vdir, walFileName)); err != nil {
				t.Fatal(err)
			}
			if _, err := NewView("cc", CC(), nil, cfg); err == nil {
				t.Fatal("unreadable snapshots and no log recovered as an empty view")
			}
		})
	}
}

// writeLegacyFile writes one checkpoint-format file the way the binaries
// before the one-format rule did: a kind, a seq, and the given sections.
func writeLegacyFile(t *testing.T, path, kind string, seq uint64, sections ...[]record.Record) {
	t.Helper()
	if err := writeFileDurable(osFS{}, path, func(w io.Writer) error {
		return writeSections(w, kind, seq, sections...)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatsFailTyped: a record used to carry a fourth field, a tag
// byte, so a log of wal version 1 (mutations as 25-byte records) and a
// snapshot of checkpoint version 2 (25-byte records in every section) are
// unreadable here. Recovery refuses each with an error that names the
// version it found — never a checksum failure or a misparse.
func TestOldFormatsFailTyped(t *testing.T) {
	oldRecord := make([]byte, 25) // A, B, X and the tag
	binary.LittleEndian.PutUint64(oldRecord[0:], 1)
	binary.LittleEndian.PutUint64(oldRecord[8:], 2)
	oldFrame := record.SealFrame(append(binary.LittleEndian.AppendUint32(make([]byte, record.FrameHeaderSize), 1), oldRecord...), 0)
	refused := func(t *testing.T, write func(vdir string), want string) {
		dir := t.TempDir()
		vdir := filepath.Join(dir, "old")
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			t.Fatal(err)
		}
		write(vdir)
		v, err := NewView("old", CC(), nil, durableCfg(dir, nil))
		if err == nil {
			v.Kill()
			t.Fatal("recovered from an old format")
		}
		if msg := err.Error(); !strings.Contains(msg, want) || errors.Is(err, record.ErrCorruptFrame) ||
			strings.Contains(msg, "malformed") {
			t.Fatalf("NewView = %v, want an error naming %q", err, want)
		}
	}
	t.Run("wal-v1", func(t *testing.T) {
		refused(t, func(vdir string) {
			log := binary.LittleEndian.AppendUint32(nil, walMagic)
			log = binary.LittleEndian.AppendUint32(log, 1)
			log = binary.LittleEndian.AppendUint64(log, 0)
			if err := os.WriteFile(filepath.Join(vdir, walFileName), append(log, oldFrame...), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "wal version 1")
	})
	t.Run("checkpoint-v2", func(t *testing.T) {
		const seq, kind = 3, "live:cc"
		refused(t, func(vdir string) {
			snap := binary.LittleEndian.AppendUint32(nil, checkpointMagic)
			snap = binary.LittleEndian.AppendUint32(snap, 2)
			snap = binary.LittleEndian.AppendUint32(snap, uint32(len(kind)))
			snap = binary.LittleEndian.AppendUint64(append(snap, kind...), seq)
			for range 4 { // vertices, edges, solution, hosts: one record and the end marker each
				snap = record.AppendFrame(append(snap, oldFrame...), nil)
			}
			if err := os.WriteFile(filepath.Join(vdir, snapshotName(seq)), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := createWAL(osFS{}, filepath.Join(vdir, walFileName), seq) // rotated behind the snapshot
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}, "checkpoint version 2")
	})
}

// TestRecoverLegacySnapshotShapes: no snapshot an earlier binary wrote in
// a shape this one does not write is recovered from. An in-process view's
// live: file written before there was a hosts section is rejected as
// errUnknownForm, on one host and on two. The multi-file snapshots earlier
// binaries wrote for sharded views — a live: base whose hosts section says
// 2, or a live-sharded: base, each beside a .shard1 sibling holding host
// 1's partitions — are never recovered from: their base alone is a partial
// solution. With the log rotated behind such a snapshot NewView fails;
// beside an older one-file snapshot and a log that reaches back to it,
// recovery reads that one and replays the log, and the next snapshot
// deletes the unreadable sibling.
func TestRecoverLegacySnapshotShapes(t *testing.T) {
	const seq, par = 7, 4
	initial := append(chain(6), InsertEdge(10, 11), InsertEdge(11, 12), addVertex(40))
	gs := NewGraphState()
	for _, mu := range initial {
		gs.Apply(mu)
	}
	var verts, edges []record.Record
	for _, vid := range gs.Vertices() {
		verts = append(verts, record.Record{A: vid})
	}
	for _, e := range gs.edges {
		edges = append(edges, record.Record{A: e.Src, B: e.Dst, X: e.Weight})
	}
	mem, err := NewView("mem", CC(), initial, ViewConfig{Config: iterative.Config{Parallelism: par}})
	if err != nil {
		t.Fatal(err)
	}
	sol := mem.Snapshot()
	mem.Close()
	// The split a 2-host writer would have produced.
	place := runtime.ContiguousPlacement(par, 2)
	hosted := make([][]record.Record, 2)
	for _, r := range sol {
		h := place[record.PartitionOf(r.A, par)]
		hosted[h] = append(hosted[h], r)
	}
	if len(hosted[0]) == 0 || len(hosted[1]) == 0 {
		t.Fatalf("fixture does not split: %d / %d records", len(hosted[0]), len(hosted[1]))
	}

	for topo, workers := range recoveryTopologies(t) {
		t.Run("plain-on-"+topo, func(t *testing.T) {
			dir := t.TempDir()
			vdir := filepath.Join(dir, "old")
			if err := os.MkdirAll(vdir, 0o755); err != nil {
				t.Fatal(err)
			}
			writeLegacyFile(t, filepath.Join(vdir, snapshotName(seq)), "live:cc", seq, verts, edges, sol)
			w, err := createWAL(osFS{}, filepath.Join(vdir, walFileName), seq) // rotated behind the snapshot
			if err != nil {
				t.Fatal(err)
			}
			w.Close()

			cfg := durableCfg(dir, nil)
			cfg.Parallelism = par
			cfg.Workers = workers
			v, err := NewView("old", CC(), nil, cfg)
			if err == nil {
				v.Kill()
				t.Fatal("recovered from a snapshot without a hosts section")
			}
			if !errors.Is(err, errUnknownForm) {
				t.Fatalf("NewView = %v, want errUnknownForm", err)
			}
		})
	}

	sibling := fmt.Sprintf("%s%020d.shard1%s", snapshotPrefix, seq, snapshotSuffix)
	families := map[string]string{"sharded": "live-sharded:cc", "two-host": "live:cc"}
	last := InsertEdge(12, 0)
	wantAfter := solutionOf(t, CC(), initial, []Mutation{last})
	for topo, workers := range recoveryTopologies(t) {
		for family, kind := range families {
			t.Run(family+"-on-"+topo, func(t *testing.T) {
				for _, fallback := range []bool{false, true} {
					dir := t.TempDir()
					vdir := filepath.Join(dir, "old")
					if err := os.MkdirAll(vdir, 0o755); err != nil {
						t.Fatal(err)
					}
					writeLegacyFile(t, filepath.Join(vdir, sibling), "live-shard:cc", seq, hosted[1])
					writeLegacyFile(t, filepath.Join(vdir, snapshotName(seq)), kind, seq,
						verts, edges, hosted[0], []record.Record{{A: 2}})
					base := uint64(seq) // the log rotated behind the family
					if fallback {
						base = seq - 1
						writeLegacyFile(t, filepath.Join(vdir, snapshotName(base)), "live:cc", base,
							verts, edges, sol, []record.Record{{A: 1}})
					}
					w, err := createWAL(osFS{}, filepath.Join(vdir, walFileName), base)
					if err != nil {
						t.Fatal(err)
					}
					if fallback {
						if _, _, err := w.Append([]Mutation{last}); err != nil { // frame 7
							t.Fatal(err)
						}
					}
					w.Close()

					cfg := durableCfg(dir, nil)
					cfg.Parallelism = par
					cfg.Workers = workers
					v, err := NewView("old", CC(), nil, cfg)
					if !fallback {
						if err == nil {
							v.Kill()
							t.Fatal("recovered from the base of a multi-file snapshot alone")
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					got, st := record.EncodeBatch(nil, v.Snapshot()), v.Stats()
					// Recovery reclaimed the legacy sibling, and a snapshot
					// leaves a name of any other shape alone.
					decoy := filepath.Join(vdir, snapshotPrefix+"latest.shard1"+snapshotSuffix)
					if err := os.WriteFile(decoy, nil, 0o644); err != nil {
						t.Fatal(err)
					}
					err = v.Checkpoint()
					v.Close()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantAfter) || st.RecoveredFrames != 1 {
						t.Fatalf("replayed %d frames to a solution equal to the history's: %v; want the one frame behind the older snapshot",
							st.RecoveredFrames, bytes.Equal(got, wantAfter))
					}
					if _, err := os.Stat(filepath.Join(vdir, sibling)); !os.IsNotExist(err) {
						t.Errorf("legacy sibling %s survived recovery (stat: %v)", sibling, err)
					}
					if _, err := os.Stat(decoy); err != nil {
						t.Errorf("pruning removed %s, which is no legacy sibling: %v", decoy, err)
					}
				}
			})
		}
	}
}

// TestShardedSnapshotIsOneFile: a view sharded over one worker writes its
// snapshot as one file, no per-host sibling beside it, and that file
// reopens in process and on two hosts to the byte-identical solution
// without replaying the log.
func TestShardedSnapshotIsOneFile(t *testing.T) {
	history := [][]Mutation{ringEdges(24), {DeleteEdge(3, 4), InsertEdge(40, 41)}, {InsertEdge(41, 5)}}
	want := solutionOf(t, CC(), history...)
	workers := startWorkers(t, 1)
	dir := t.TempDir()
	cfg := durableCfg(dir, nil)
	cfg.BatchSize = 1 << 30
	cfg.Workers = workers
	v, err := NewView("one", CC(), history[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range history[1:] {
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v.Kill()
	entries, err := os.ReadDir(filepath.Join(dir, "one"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); !ok && e.Name() != walFileName { // a .shard<h> sibling does not parse
			t.Fatalf("the view directory holds %s beside its log and snapshots", e.Name())
		}
	}

	for _, topo := range []struct {
		name    string
		workers []string
	}{{"in-process", nil}, {"2-host", workers}} {
		cfg.Workers = topo.workers
		v, err := NewView("one", CC(), nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", topo.name, err)
		}
		got, st := record.EncodeBatch(nil, v.Snapshot()), v.Stats()
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the one-file snapshot reopened to a different solution", topo.name)
		}
		if st.RecoveredFrames != 0 {
			t.Fatalf("%s: replayed %d frames the checkpoint covers", topo.name, st.RecoveredFrames)
		}
	}
}

// snapshotFamilyFixture is the directory FuzzSnapshotFamily damages: a
// 2-host CC view killed with two snapshots on disk (seqs 1 and 2, one file
// each) and a log that still reaches back to frame 2 — so whichever
// snapshot recovery ends up reading, replay must arrive at the same final
// state.
var snapshotFamilyFixture struct {
	once    sync.Once
	files   map[string][]byte
	want    []byte
	workers []string
}

func buildSnapshotFamilyFixture(t *testing.T) {
	fx := &snapshotFamilyFixture
	history := [][]Mutation{ringEdges(24), {DeleteEdge(3, 4), InsertEdge(40, 41)}, {DeleteEdge(15, 16), InsertEdge(41, 5)}}
	fx.want = solutionOf(t, CC(), history...)
	// Not startWorkers: this worker must outlive the fuzz iteration that
	// happened to build the fixture.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: NewWorkerHost(nil)})
	fx.workers = []string{ln.Addr().String()}
	dir, err := os.MkdirTemp("", "snapshot-family-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := durableCfg(dir, nil)
	cfg.BatchSize = 1 << 30
	cfg.Workers = fx.workers
	v, err := NewView("fam", CC(), history[0], cfg) // frame 1, snapshot 1
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(history[1]...); err != nil { // frame 2
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(history[2]...); err != nil { // frame 3 stays pending: the checkpoint cannot rotate the log
		t.Fatal(err)
	}
	if err := v.Checkpoint(); err != nil { // snapshot 2
		t.Fatal(err)
	}
	v.Kill()
	entries, err := os.ReadDir(filepath.Join(dir, "fam"))
	if err != nil {
		t.Fatal(err)
	}
	fx.files = map[string][]byte{}
	for _, e := range entries {
		if fx.files[e.Name()], err = os.ReadFile(filepath.Join(dir, "fam", e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{snapshotName(1), snapshotName(2), walFileName} {
		if len(fx.files[name]) == 0 {
			t.Fatalf("fixture is missing %s (has %d files)", name, len(fx.files))
		}
	}
	if len(fx.files) != 3 {
		t.Fatalf("fixture holds %d files, want its two snapshots and the log", len(fx.files))
	}
}

// FuzzSnapshotFamily damages the two snapshot files a 2-host view wrote —
// truncation, a flipped bit, a dropped file, up to three times over — and
// recovers the directory on one host (spilling under a tiny budget) or on
// two. Recovery may fall back to the older snapshot or fail; it must never
// panic, never hand out a solution other than the one the full history
// converges to, and never leave a goroutine or a spill file behind.
func FuzzSnapshotFamily(f *testing.F) {
	f.Add([]byte{})                                  // undamaged
	f.Add([]byte{1, 2, 0, 0, 0})                     // newest dropped
	f.Add([]byte{0, 2, 0, 0, 0})                     // oldest dropped
	f.Add([]byte{1, 0, 0, 40, 0, 0, 1, 0, 9, 1})     // newest torn, oldest bit-flipped
	f.Add([]byte{1, 2, 0, 0, 0, 0, 2, 0, 0, 0})      // both dropped: nothing lists
	f.Add([]byte{1, 1, 3, 33, 1, 0, 0, 0, 20, 0, 1}) // on two hosts
	for cut := 0; cut < 64; cut++ {                  // a tear at every offset near the newest's tail, the section boundaries among them
		f.Add([]byte{1, 0, 0, byte(cut), 0xff})
	}
	f.Fuzz(func(t *testing.T, damage []byte) {
		fx := &snapshotFamilyFixture
		fx.once.Do(func() { buildSnapshotFamilyFixture(t) })
		if fx.files == nil {
			t.Skip("fixture failed to build")
		}
		t.Setenv("TMPDIR", t.TempDir())
		dir := t.TempDir()
		vdir := filepath.Join(dir, "fam")
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, raw := range fx.files {
			if err := os.WriteFile(filepath.Join(vdir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		targets := []string{snapshotName(1), snapshotName(2)}
		twoHosts := len(damage)%5 == 1
		for n := 0; len(damage) >= 5 && n < 3; n, damage = n+1, damage[5:] {
			path := filepath.Join(vdir, targets[int(damage[0])%len(targets)])
			raw, err := os.ReadFile(path)
			if err != nil {
				continue // dropped by an earlier round
			}
			pos := int(damage[2])<<8 | int(damage[3])
			if damage[4] == 0xff { // count from the tail
				pos = len(raw) - 1 - pos
			}
			pos = ((pos % len(raw)) + len(raw)) % len(raw)
			switch damage[1] % 3 {
			case 0:
				err = os.Truncate(path, int64(pos))
			case 1:
				raw[pos] ^= 1 << (damage[4] % 8)
				err = os.WriteFile(path, raw, 0o644)
			case 2:
				err = os.Remove(path)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		baseline := goruntime.NumGoroutine()
		cfg := durableCfg(dir, nil)
		cfg.BatchSize = 1 << 30
		if twoHosts {
			cfg.Workers = fx.workers
		} else {
			cfg.SolutionMemoryBudget = 64
		}
		v, err := NewView("fam", CC(), nil, cfg)
		if err == nil {
			got := record.EncodeBatch(nil, v.Snapshot())
			v.Kill()
			if !bytes.Equal(got, fx.want) {
				t.Fatalf("recovery served %d bytes of solution, the history converges to %d", len(got), len(fx.want))
			}
		}
		waitForGoroutines(t, baseline, "damaged recovery")
		if left := spillFiles(t); len(left) != 0 {
			t.Fatalf("spill files left behind: %v", left)
		}
	})
}
