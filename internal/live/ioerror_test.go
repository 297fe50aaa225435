package live

import (
	"bytes"
	"fmt"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iterative"
	"repro/internal/record"
)

// The outcomes of one (call, error) run of TestEveryIOError, in the order a
// run is charged to them: the worst one it or any of its crash states
// earns. back is a run whose fault took a view down and the scheduler
// brought every such view back; not back is one where a view stayed down,
// or came back wrong.
var ioColumns = []string{"ok", "typed error", "back", "lost-ack", "phantom", "not back", "hang", "panic"}

const (
	ioOK = iota
	ioTyped
	ioBack
	ioLostAck
	ioPhantom
	ioNotBack
	ioHang
	ioPanic
)

// ioHangAfter is how long one run may take before it counts as a hang.
const ioHangAfter = 10 * time.Second

// ioRun is one (call, error) pair of a section and what came of it: its
// outcome, and how long each Get that brought a view back took.
type ioRun struct {
	section string
	at      int
	fault   ioFault
	col     int
	why     string
	took    []time.Duration
}

// judgeFinal charges a played script c to a column: not back if a view it
// brought back failed a check, else the worst of its crash states, where a
// state recovery cannot bring back (judge's error column) has lost what
// was acknowledged. erred reports that some operation returned a (typed)
// error.
func judgeFinal(mem *memFS, dataDir string, c *crashScript, ext *sync.Map, erred bool) (col int, why string) {
	switch {
	case len(c.notBack) > 0:
		return ioNotBack, strings.Join(c.notBack, "; ")
	case len(c.tookBack) > 0:
		col = ioBack
	case erred:
		col = ioTyped
	}
	want, oracle := expected(c.events, mem.calls+1), c.judged(ext)
	seen := map[string]bool{}
	err := mem.crashStates(func(tree map[string][]byte, note string) {
		key := treeKey(tree)
		if seen[key] {
			return
		}
		seen[key] = true
		jc, jwhy := judge(recoverTree(dataDir, tree), want, oracle)
		worst := [...]int{ioOK, ioLostAck, ioPhantom, ioLostAck, ioPanic}[jc]
		if jc == 3 {
			jwhy = "unrecoverable: " + jwhy
		}
		if worst > col {
			col, why = worst, note+" — "+jwhy
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
// At the end the scheduler's Get brings every view that went down back
// (crashScript.back). Then every crash state of the tree the run left, the
// reopens' own writes included, is recovered and judged as
// TestEveryCrashPoint judges its own. The same goes for each call of a
// Scheduler.Recover that must write (recoveryFixture): whether or not the
// fault failed the open, Get must then serve the view and take a batch. A
// run is charged to the worst outcome; every column but ok, typed error
// and back must read 0. The table of runs by error and outcome, and the
// time to serving by error, are logged with `go test -v -run
// TestEveryIOError`.
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
	recOracle := map[string][][][]byte{"cc": {solutions(t, "cc", frames)}}
	var ext sync.Map // the oracles of histories that went on after a view came back

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
				c := newCrashScript(t, mem, dataDir, true)
				c.clean = recOracle
				c.history["cc"] = [][][]Mutation{slices.Clone(frames)}
				for _, kind := range []string{"createStart", "created", "mutateStart", "mutated"} {
					c.event("cc", kind, 0, len(frames))
				}
				_, err := c.s.Recover()
				_, c.views["cc"] = c.s.lookup("cc")
				c.back("cc")
				c.s.Close()
				mu.Lock()
				r.took = c.tookBack
				mu.Unlock()
				return judgeFinal(mem, dataDir, c, &ext, err != nil)
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
			c.clean = oracle
			c.run()
			mu.Lock()
			r.took = c.tookBack
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
			return judgeFinal(mem, dataDir, c, &ext, c.errs > 0)
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
	t.Logf("|---|---|---:|%s", strings.Repeat("---:|", len(ioColumns)))
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
	// Time to serving: how long a Get that brought a view back took, by
	// the error that took it down.
	took := map[string][]time.Duration{}
	for _, r := range runs {
		took[r.fault.name] = append(took[r.fault.name], r.took...)
	}
	for _, f := range ioFaults {
		if d := took[f.name]; len(d) > 0 {
			slices.Sort(d)
			t.Logf("time to serving after %s: %d views back, p50 %v, max %v",
				f.name, len(d), d[len(d)/2].Round(time.Microsecond), d[len(d)-1].Round(time.Microsecond))
		}
	}
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
