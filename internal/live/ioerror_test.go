package live

import (
	"bytes"
	"fmt"
	"path"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iterative"
	"repro/internal/record"
)

// The outcomes of one (call, error) run of TestEveryIOError, in the order a
// run is charged to them: the worst one any of its crash states earns.
var ioColumns = []string{"ok", "typed error", "lost-ack", "phantom", "hang", "panic"}

const (
	ioOK = iota
	ioTyped
	ioLostAck
	ioPhantom
	ioHang
	ioPanic
)

// ioHangAfter is how long one run may take before it counts as a hang.
const ioHangAfter = 10 * time.Second

// ioRun is one (call, error) pair of a section and what came of it.
type ioRun struct {
	section string
	at      int
	fault   ioFault
	col     int
	why     string
}

// judgeFinal recovers every crash state of what mem holds now, and charges
// them to the worst column: a state recovery cannot bring back (judge's
// error column) has lost what was acknowledged. erred reports that some
// operation returned a (typed) error.
func judgeFinal(mem *memFS, dataDir string, want map[string]window, oracle map[string][][][]byte, erred bool) (col int, why string) {
	if erred {
		col = ioTyped
	}
	seen := map[string]bool{}
	err := mem.crashStates(func(tree map[string][]byte, note string) {
		key := treeKey(tree)
		if seen[key] {
			return
		}
		seen[key] = true
		jc, jwhy := judge(recoverTree(dataDir, tree), want, oracle)
		c := [...]int{ioOK, ioLostAck, ioPhantom, ioLostAck, ioPanic}[jc]
		if jc == 3 {
			jwhy = "unrecoverable: " + jwhy
		}
		if c > col {
			col, why = c, note+" — "+jwhy
		}
	})
	if err != nil {
		return ioLostAck, err.Error()
	}
	return col, why
}

// guarded runs one run's body, charging a panic or a hang to their columns.
func guarded(body func() (int, string)) (col int, why string) {
	type result struct {
		col int
		why string
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{ioPanic, fmt.Sprint("panic: ", r)}
			}
		}()
		col, why := body()
		done <- result{col, why}
	}()
	select {
	case r := <-done:
		return r.col, r.why
	case <-time.After(ioHangAfter):
		return ioHang, fmt.Sprintf("no answer after %v", ioHangAfter)
	}
}

// faultRuns runs body against mem and pairs every call it made with every
// error that applies to the call's kind. It also returns the kinds, in call
// order.
func faultRuns(section string, mem *memFS, body func()) (runs []ioRun, kinds []string) {
	mem.afterCall = func() {
		kind := strings.Fields(mem.last)[0]
		kinds = append(kinds, kind)
		for _, f := range ioFaults {
			if f.kind == kind {
				runs = append(runs, ioRun{section: section, at: mem.calls, fault: f})
			}
		}
	}
	body()
	mem.afterCall = nil
	return runs, kinds
}

// recoveryFixture is a data directory whose Scheduler.Recover must write:
// one CC view whose newest snapshot is unreadable — recovery falls back to
// the older one, replays the log from there and writes a snapshot and a
// fresh log — whose log ends in a torn frame, truncated and synced, and
// beside which a crash left a temporary, deleted. It returns the tree and
// the view's log frames, every one acknowledged.
func recoveryFixture(t *testing.T, dataDir string) (map[string][]byte, [][]Mutation) {
	mem := newMemFS(dataDir)
	s := NewScheduler(SchedulerConfig{
		DataDir:     dataDir,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem},
	})
	frames := [][]Mutation{{InsertEdge(0, 1), InsertEdge(2, 3)}, {InsertEdge(1, 2)}, {InsertEdge(5, 6)}, {DeleteEdge(1, 2)}}
	v, err := s.Create("cc", CC(), frames[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range frames[1:] {
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The last frame is pending, so the snapshot at seq 3 leaves the log
	// unrotated: it still reaches back to the base snapshot at seq 1.
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mem.settle(mem.root)
	var tree map[string][]byte
	mem.crashStates(func(tr map[string][]byte, _ string) {
		tree = make(map[string][]byte, len(tr))
		for p, b := range tr {
			tree[p] = bytes.Clone(b)
		}
	})
	dir := path.Join(dataDir, "cc")
	newest := path.Join(dir, snapshotName(3))
	if _, ok := tree[path.Join(dir, snapshotName(1))]; !ok || tree[newest] == nil {
		t.Fatalf("fixture holds no snapshots 1 and 3: %v", sortedNames(tree))
	}
	tree[newest][len(tree[newest])/2] ^= 0xff
	torn := record.SealFrame(appendMutations(make([]byte, record.FrameHeaderSize), []Mutation{InsertEdge(40, 41)}), 0)
	wal := path.Join(dir, walFileName)
	tree[wal] = append(tree[wal], torn[:len(torn)/2]...)
	tree[path.Join(dir, snapshotName(9)+".tmp")] = []byte("a write a crash cut short")
	return tree, frames
}

// TestRecoveryKeepsOnlyReadableSnapshots: recovering recoveryFixture's
// tree, whose newest snapshot (3) is unreadable, writes a snapshot of its
// own and deletes the one it passed over, so every snapshot left loads.
func TestRecoveryKeepsOnlyReadableSnapshots(t *testing.T) {
	const dataDir = "/data"
	tree, _ := recoveryFixture(t, dataDir)
	mem := memFSOf(tree)
	cfg := ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem}
	s := NewScheduler(SchedulerConfig{DataDir: dataDir, DefaultView: cfg})
	if n, err := s.Recover(); n != 1 || err != nil {
		t.Fatalf("recovered %d views: %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dir := path.Join(dataDir, "cc")
	vf, err := readViewDir(mem, dir)
	if err != nil || len(vf.snaps) == 0 {
		t.Fatalf("no snapshot after recovery (%v)", err)
	}
	for _, seq := range vf.snaps {
		v, err := loadSnapshot(dir, seq, "cc", CC(), cfg.normalized())
		if err != nil {
			t.Fatalf("snapshots %v after recovery: %d does not load: %v", vf.snaps, seq, err)
		}
		v.sess.hangUp()
	}
}

// TestEveryIOError fails each file-system call of crashScript in turn with
// each error that call can meet (ioFaults: EIO or ENOSPC on a write, a
// short write, ENOSPC on a create, EIO on a sync, directory sync, rename,
// remove or truncate), and the script carries on past it: every operation
// returns nil or an error wrapping ErrViewDown (a create's or a drop's, any
// error), and a view that has returned one acknowledges nothing after it.
// Then every crash state of the tree the run left is recovered and judged as
// TestEveryCrashPoint judges its own. The same goes for each call of a
// Scheduler.Recover that must write (recoveryFixture). A run is charged to
// the worst outcome among its crash states; every column but ok and typed
// error must read 0. The table of runs by error and outcome is logged with
// `go test -v -run TestEveryIOError`.
func TestEveryIOError(t *testing.T) {
	start := time.Now()
	const dataDir = "/data"

	// The runs without a fault name the calls, and the script's builds the
	// oracle: a faulty run's history of each incarnation is a prefix of it.
	mem := newMemFS(dataDir)
	clean := newCrashScript(t, mem, dataDir, false)
	runs, scriptKinds := faultRuns("script", mem, clean.run)
	oracle := clean.oracle()

	tree, frames := recoveryFixture(t, dataDir)
	recMem := memFSOf(tree)
	recRuns, recKinds := faultRuns("recover", recMem, func() {
		s := NewScheduler(SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: recMem}})
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	for _, call := range []string{"remove", "truncate", "rename"} {
		if !strings.Contains(strings.Join(recKinds, " "), call) {
			t.Fatalf("the fixture's recovery made no %s call: %v", call, recKinds)
		}
	}
	runs = append(runs, recRuns...)
	recHistory := &crashScript{t: t, history: map[string][][][]Mutation{"cc": {frames}}}
	recOracle := recHistory.oracle()
	recWant := map[string]window{"cc": {lo: len(frames), hi: len(frames)}}

	var (
		mu       sync.Mutex
		problems []string
		// rotateDirSync counts the runs that failed the directory fsync
		// behind a log rotation's rename, refused is how many of those
		// went on to refuse a Mutate.
		rotateDirSync, refused int
	)
	runOne := func(r *ioRun) {
		r.col, r.why = guarded(func() (int, string) {
			if r.section == "recover" {
				mem := memFSOf(tree)
				mem.failAt, mem.fault = r.at, r.fault
				s := NewScheduler(SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem}})
				_, err := s.Recover()
				s.Close()
				return judgeFinal(mem, dataDir, recWant, recOracle, err != nil)
			}
			mem := newMemFS(dataDir)
			mem.failAt, mem.fault = r.at, r.fault
			var prev string
			afterRotate := false
			mem.afterCall = func() {
				if mem.calls == r.at {
					afterRotate = strings.HasPrefix(prev, "rename ") && strings.HasSuffix(prev, "/"+walFileName)
				}
				prev = mem.last
			}
			c := newCrashScript(t, mem, dataDir, true)
			c.run()
			mu.Lock()
			for _, p := range c.problems {
				problems = append(problems, fmt.Sprintf("%s at call %d: %s", r.fault.name, r.at, p))
			}
			if afterRotate && r.fault.kind == "syncdir" {
				rotateDirSync++
				if c.mutatesRefused > 0 {
					refused++
				}
			}
			mu.Unlock()
			return judgeFinal(mem, dataDir, expected(c.events, mem.calls+1), oracle, c.errs > 0)
		})
	}
	next := make(chan *ioRun)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				runOne(r)
			}
		}()
	}
	for i := range runs {
		next <- &runs[i]
	}
	close(next)
	wg.Wait()

	// The table: runs by section and error, and by outcome.
	type rowKey struct{ section, fault string }
	counts := map[rowKey][]int{}
	total := make([]int, len(ioColumns))
	var failures []string
	for _, r := range runs {
		k := rowKey{r.section, r.fault.name}
		if counts[k] == nil {
			counts[k] = make([]int, len(ioColumns))
		}
		counts[k][r.col]++
		total[r.col]++
		if r.col >= ioLostAck {
			failures = append(failures, fmt.Sprintf("%s: %s at %s call %d: %s", ioColumns[r.col], r.fault.name, r.section, r.at, r.why))
		}
	}
	t.Logf("| section | error | runs | %s |", strings.Join(ioColumns, " | "))
	t.Logf("|---|---|---:|---:|---:|---:|---:|---:|---:|")
	row := func(section, fault string, r []int) {
		sum, cells := 0, make([]string, len(r))
		for j, n := range r {
			sum += n
			cells[j] = fmt.Sprint(n)
		}
		t.Logf("| %s | %s | %d | %s |", section, fault, sum, strings.Join(cells, " | "))
	}
	for _, section := range []string{"script", "recover"} {
		for _, f := range ioFaults {
			if c := counts[rowKey{section, f.name}]; c != nil {
				row(section, f.name, c)
			}
		}
	}
	row("**total**", "", total)
	t.Log("")
	t.Logf("%d runs: %d script calls, %d recovery calls, each failed with every error that applies; %.1f s wall",
		len(runs), len(scriptKinds), len(recKinds), time.Since(start).Seconds())

	for i, f := range append(problems, failures...) {
		if i == 20 {
			t.Errorf("... and %d more", len(problems)+len(failures)-i)
			break
		}
		t.Error(f)
	}
	// The fault this enumeration took over from a test of its own: the
	// directory fsync behind a rotation's rename. The view must refuse
	// every later Mutate (crashScript.accepted checks it in every run) and
	// recovery lose nothing (judged above).
	if rotateDirSync == 0 || refused == 0 {
		t.Errorf("%d runs failed a rotation's directory fsync, %d of them went on to refuse a Mutate; want both > 0",
			rotateDirSync, refused)
	}
}
