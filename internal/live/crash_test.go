package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/iterative"
	"repro/internal/record"
)

// --- an in-memory fsys that knows what a crash keeps ----------------------

// memNode is a file or a directory of memFS. A file holds its bytes, the
// prefix its last Sync made durable, and where each write since began. A
// directory holds its entries, the entries its last SyncDir made durable,
// and the creates, renames and removes made in it since.
type memNode struct {
	dir          bool
	data, synced []byte
	writes       []int
	entries      map[string]*memNode
	durable      map[string]*memNode
	pending      []dirOp
}

// dirOp is one unsynced change of a directory: name now names node (nil if
// removed) and, for a rename, no longer names from.
type dirOp struct {
	name, from string
	node       *memNode
}

func (op dirOp) apply(entries map[string]*memNode) {
	if op.from != "" {
		delete(entries, op.from)
	}
	if op.node == nil {
		delete(entries, op.name)
	} else {
		entries[op.name] = op.node
	}
}

func (op dirOp) String() string {
	switch {
	case op.node == nil:
		return "remove " + op.name
	case op.from != "":
		return "rename " + op.from + " " + op.name
	case op.node.dir:
		return "mkdir " + op.name
	}
	return "create " + op.name
}

func newMemDir() *memNode {
	return &memNode{dir: true, entries: map[string]*memNode{}, durable: map[string]*memNode{}}
}

// memFS is an fsys in memory. It counts its state-changing calls and
// fsyncs, runs afterCall after each such call, and enumerates what a crash
// at that point may leave (crashStates). Reads change nothing a crash could
// keep, so they are not calls here. A fault plan fails one call.
type memFS struct {
	mu        sync.Mutex
	root      *memNode
	calls     int
	syncs     int
	last      string
	afterCall func()
	// failAt, when non-zero, is the number of the call that meets fault;
	// the fault must apply to that call's kind. broken, when its err is
	// set, fails every call of its kind (of every kind, if that is empty)
	// from then on.
	failAt int
	fault  ioFault
	broken ioFault
	// unreadable fails the reads of the file at path with EIO from its
	// byte at on (at 0, the Open itself). A read is no call of the
	// enumerations.
	unreadable struct {
		path string
		at   int
	}
}

// ioFault is one error a file call can meet. A failed call counts as a
// call and changes nothing, except that a short write lands the first half
// of its bytes, and a failed Sync or SyncDir leaves what it did not make
// durable to the persistence model (tails, crashStates): it may survive a
// crash or not.
type ioFault struct {
	name  string // as the table prints it
	kind  string // the call it applies to, as memFS records it
	err   error
	short bool
}

// ioFaults are the errors TestEveryIOError injects.
var ioFaults = []ioFault{
	{name: "EIO write", kind: "write", err: syscall.EIO},
	{name: "short write", kind: "write", err: io.ErrShortWrite, short: true},
	{name: "ENOSPC write", kind: "write", err: syscall.ENOSPC},
	{name: "ENOSPC create", kind: "create", err: syscall.ENOSPC},
	{name: "EIO sync", kind: "sync", err: syscall.EIO},
	{name: "EIO syncdir", kind: "syncdir", err: syscall.EIO},
	{name: "EIO rename", kind: "rename", err: syscall.EIO},
	{name: "EIO remove", kind: "remove", err: syscall.EIO},
	{name: "EIO truncate", kind: "truncate", err: syscall.EIO},
}

// planned reports whether the next call, of kind, is the one the plan
// fails, or the file system is broken. If so it records the call as made,
// failed.
func (m *memFS) planned(kind, call string) (ioFault, bool) {
	if m.broken.err != nil && (m.broken.kind == "" || m.broken.kind == kind) {
		m.record(call + ": broken")
		return m.broken, true
	}
	if m.failAt != m.calls+1 || m.fault.kind != kind {
		return ioFault{}, false
	}
	m.record(call + ": " + m.fault.name)
	return m.fault, true
}

// newMemFS returns a file system holding the durable, empty directory
// dataDir.
func newMemFS(dataDir string) *memFS {
	m := &memFS{root: newMemDir()}
	m.MkdirAll(dataDir)
	m.settle(m.root)
	return m
}

// settle makes everything under n durable, as if the machine restarted
// with exactly this tree on disk.
func (m *memFS) settle(n *memNode) {
	if !n.dir {
		n.synced, n.writes = bytes.Clone(n.data), nil
		return
	}
	n.durable, n.pending = map[string]*memNode{}, nil
	for name, c := range n.entries {
		n.durable[name] = c
		m.settle(c)
	}
}

func (m *memFS) record(call string) {
	m.calls++
	m.last = call
	if m.afterCall != nil {
		m.afterCall()
	}
}

// lookup returns the directory holding p, the base name of p, and the node
// p names (nil if missing).
func (m *memFS) lookup(p string) (dir *memNode, name string, n *memNode) {
	parts := strings.Split(strings.Trim(path.Clean(p), "/"), "/")
	dir = m.root
	for _, part := range parts[:len(parts)-1] {
		if dir = dir.entries[part]; dir == nil || !dir.dir {
			return nil, "", nil
		}
	}
	name = parts[len(parts)-1]
	return dir, name, dir.entries[name]
}

func notFound(op, p string) error { return &fs.PathError{Op: op, Path: p, Err: fs.ErrNotExist} }

func (m *memFS) change(dir *memNode, op dirOp) {
	op.apply(dir.entries)
	dir.pending = append(dir.pending, op)
}

// Create always makes a new file: the name may keep naming the old one
// after a crash.
func (m *memFS) Create(p string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, _ := m.lookup(p)
	if dir == nil {
		return nil, notFound("create", p)
	}
	if f, ok := m.planned("create", "create "+p); ok {
		return nil, &fs.PathError{Op: "create", Path: p, Err: f.err}
	}
	n := &memNode{}
	m.change(dir, dirOp{name: name, node: n})
	m.record("create " + p)
	return &memFile{m: m, n: n, path: p}, nil
}

func (m *memFS) OpenAppend(p string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, _, n := m.lookup(p); n != nil && !n.dir {
		return &memFile{m: m, n: n, path: p}, nil
	}
	return nil, notFound("open", p)
}

func (m *memFS) Open(p string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, _, n := m.lookup(p); n != nil && !n.dir {
		if p != m.unreadable.path {
			return io.NopCloser(bytes.NewReader(bytes.Clone(n.data))), nil
		}
		eio := &fs.PathError{Op: "read", Path: p, Err: syscall.EIO}
		if m.unreadable.at == 0 {
			eio.Op = "open"
			return nil, eio
		}
		return io.NopCloser(io.MultiReader(bytes.NewReader(bytes.Clone(n.data[:m.unreadable.at])), iotest.ErrReader(eio))), nil
	}
	return nil, notFound("open", p)
}

type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return nil, errors.ErrUnsupported }

func (m *memFS) ReadDir(p string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, n := m.lookup(p)
	if n == nil || !n.dir {
		return nil, notFound("readdir", p)
	}
	var out []fs.DirEntry
	for _, name := range sortedNames(n.entries) {
		out = append(out, memEntry{name, n.entries[name].dir})
	}
	return out, nil
}

func (m *memFS) MkdirAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.root
	for _, part := range strings.Split(strings.Trim(path.Clean(p), "/"), "/") {
		next := d.entries[part]
		if part == "" {
			continue
		}
		if next == nil {
			next = newMemDir()
			m.change(d, dirOp{name: part, node: next})
		}
		d = next
	}
	m.record("mkdir " + p)
	return nil
}

func (m *memFS) Rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, n := m.lookup(from)
	toDir, toName, _ := m.lookup(to)
	if n == nil || toDir != dir {
		return notFound("rename", from)
	}
	if f, ok := m.planned("rename", "rename "+from+" "+to); ok {
		return &fs.PathError{Op: "rename", Path: from, Err: f.err}
	}
	m.change(dir, dirOp{name: toName, from: name, node: n})
	m.record("rename " + from + " " + to)
	return nil
}

func (m *memFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, n := m.lookup(p)
	if n == nil {
		return notFound("remove", p)
	}
	if n.dir && len(n.entries) > 0 {
		return &fs.PathError{Op: "remove", Path: p, Err: errors.New("directory not empty")}
	}
	if f, ok := m.planned("remove", "remove "+p); ok {
		return &fs.PathError{Op: "remove", Path: p, Err: f.err}
	}
	m.change(dir, dirOp{name: name})
	m.record("remove " + p)
	return nil
}

// RemoveAll removes each entry as its own unsynced remove, as the
// operating system does, so a crash may keep any subset of them.
func (m *memFS) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, name, n := m.lookup(p)
	if n == nil {
		return nil
	}
	var empty func(d *memNode)
	empty = func(d *memNode) {
		for _, c := range sortedNames(d.entries) {
			if d.entries[c].dir {
				empty(d.entries[c])
			}
			m.change(d, dirOp{name: c})
		}
	}
	if n.dir {
		empty(n)
	}
	m.change(dir, dirOp{name: name})
	m.record("removeall " + p)
	return nil
}

func (m *memFS) SyncDir(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, n := m.lookup(p)
	if n == nil || !n.dir {
		return notFound("sync", p)
	}
	if f, ok := m.planned("syncdir", "syncdir "+p); ok {
		return &fs.PathError{Op: "sync", Path: p, Err: f.err}
	}
	n.durable, n.pending = map[string]*memNode{}, nil
	for name, c := range n.entries {
		n.durable[name] = c
	}
	m.syncs++
	m.record("syncdir " + p)
	return nil
}

// memFile is an open memFS file: reads start at the beginning, writes
// append.
type memFile struct {
	m    *memFS
	n    *memNode
	path string
	off  int
}

func (f *memFile) Read(b []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	data := f.n.data
	if f.path == f.m.unreadable.path {
		if f.off >= f.m.unreadable.at {
			return 0, &fs.PathError{Op: "read", Path: f.path, Err: syscall.EIO}
		}
		data = data[:f.m.unreadable.at]
	}
	if f.off >= len(data) {
		return 0, io.EOF
	}
	k := copy(b, data[f.off:])
	f.off += k
	return k, nil
}

func (f *memFile) Write(b []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	call := fmt.Sprintf("write %s +%d", f.path, len(b))
	if ft, ok := f.m.planned("write", call); ok {
		n := 0
		if ft.short {
			n = len(b) / 2
			f.n.writes = append(f.n.writes, len(f.n.data))
			f.n.data = append(f.n.data, b[:n]...)
		}
		return n, &fs.PathError{Op: "write", Path: f.path, Err: ft.err}
	}
	f.n.writes = append(f.n.writes, len(f.n.data))
	f.n.data = append(f.n.data, b...)
	f.m.record(call)
	return len(b), nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if ft, ok := f.m.planned("sync", "sync "+f.path); ok {
		return &fs.PathError{Op: "sync", Path: f.path, Err: ft.err}
	}
	f.n.synced, f.n.writes = bytes.Clone(f.n.data), nil
	f.m.syncs++
	f.m.record("sync " + f.path)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if ft, ok := f.m.planned("truncate", fmt.Sprintf("truncate %s %d", f.path, size)); ok {
		return &fs.PathError{Op: "truncate", Path: f.path, Err: ft.err}
	}
	f.n.data = f.n.data[:size]
	for len(f.n.writes) > 0 && f.n.writes[len(f.n.writes)-1] >= int(size) {
		f.n.writes = f.n.writes[:len(f.n.writes)-1]
	}
	f.m.record(fmt.Sprintf("truncate %s %d", f.path, size))
	return nil
}

func (f *memFile) Close() error { return nil }

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- the persistence model ------------------------------------------------

// tails is what a crash may leave of a file: the synced bytes plus its
// unsynced tail cut at the start and the middle of every write since the
// last Sync, or whole. A file cut below its synced bytes (Truncate) keeps
// either the synced or the current bytes.
func tails(n *memNode) [][]byte {
	if len(n.synced) > len(n.data) || !bytes.Equal(n.synced, n.data[:len(n.synced)]) {
		return [][]byte{n.synced, n.data}
	}
	var cuts []int
	for i, w := range n.writes {
		end := len(n.data)
		if i+1 < len(n.writes) {
			end = n.writes[i+1]
		}
		cuts = append(cuts, w, w+(end-w)/2)
	}
	cuts = append(cuts, len(n.data))
	var out [][]byte
	for i, c := range cuts {
		if c >= len(n.synced) && (i == 0 || c != cuts[i-1]) {
			out = append(out, n.data[:c])
		}
	}
	return out
}

// maxUnsynced bounds the directory operations a crash state may choose
// among, 2^maxUnsynced trees at one crash point.
const maxUnsynced = 12

// crashStates calls visit with every tree a crash now may leave, as a map
// from path to contents (a directory's path ends in "/"): every unsynced
// create, rename, mkdir or remove either happened or did not, and every
// file keeps one of its tails. The enumeration is deterministic. note
// names the choices that differ from the live tree.
func (m *memFS) crashStates(visit func(tree map[string][]byte, note string)) error {
	// The unsynced operations of every directory a crash can reach.
	type op struct {
		dir *memNode
		i   int
	}
	var ops []op
	seen := map[*memNode]bool{}
	var reach func(d *memNode)
	reach = func(d *memNode) {
		if seen[d] {
			return
		}
		seen[d] = true
		for i := range d.pending {
			ops = append(ops, op{d, i})
		}
		kids := []*memNode{}
		for _, name := range sortedNames(d.durable) {
			kids = append(kids, d.durable[name])
		}
		for _, p := range d.pending {
			kids = append(kids, p.node)
		}
		for _, k := range kids {
			if k != nil && k.dir {
				reach(k)
			}
		}
	}
	reach(m.root)
	if len(ops) > maxUnsynced {
		return fmt.Errorf("after %q: %d unsynced directory operations, more than %d", m.last, len(ops), maxUnsynced)
	}
	for mask := 0; mask < 1<<len(ops); mask++ {
		kept := map[*memNode][]bool{}
		var dropped []string
		for b, o := range ops {
			kept[o.dir] = append(kept[o.dir], mask&(1<<b) == 0)
			if mask&(1<<b) != 0 {
				dropped = append(dropped, o.dir.pending[o.i].String())
			}
		}
		tree := map[string][]byte{}
		var files []string
		nodes := map[string]*memNode{}
		var walk func(d *memNode, p string)
		walk = func(d *memNode, p string) {
			tree[p+"/"] = nil
			entries := make(map[string]*memNode, len(d.durable))
			for name, n := range d.durable {
				entries[name] = n
			}
			for i, op := range d.pending {
				if kept[d][i] {
					op.apply(entries)
				}
			}
			for _, name := range sortedNames(entries) {
				if n := entries[name]; n.dir {
					walk(n, p+"/"+name)
				} else {
					files = append(files, p+"/"+name)
					nodes[p+"/"+name] = n
				}
			}
		}
		walk(m.root, "")
		// Every combination of the files' tails.
		choice := make([][][]byte, len(files))
		for i, f := range files {
			choice[i] = tails(nodes[f])
		}
		idx := make([]int, len(files))
		for {
			var cut []string
			for i, f := range files {
				tree[f] = choice[i][idx[i]]
				if len(tree[f]) != len(nodes[f].data) {
					cut = append(cut, fmt.Sprintf("%s@%d/%d", f, len(tree[f]), len(nodes[f].data)))
				}
			}
			visit(tree, fmt.Sprintf("lost %q, cut %v", dropped, cut))
			i := 0
			for ; i < len(idx); i++ {
				if idx[i]++; idx[i] < len(choice[i]) {
					break
				}
				idx[i] = 0
			}
			if i == len(idx) {
				break
			}
		}
	}
	return nil
}

// treeKey is a tree's identity: states that leave the same bytes recover
// the same way.
func treeKey(tree map[string][]byte) string {
	var b strings.Builder
	for _, p := range sortedNames(tree) {
		fmt.Fprintf(&b, "%s\x00%d\x00%s", p, len(tree[p]), tree[p])
	}
	return b.String()
}

// memFSOf is a file system holding exactly tree, all of it durable.
func memFSOf(tree map[string][]byte) *memFS {
	m := &memFS{root: newMemDir()}
	for _, p := range sortedNames(tree) {
		if strings.HasSuffix(p, "/") {
			m.MkdirAll(p)
			continue
		}
		f, _ := m.Create(p)
		f.Write(tree[p])
	}
	m.settle(m.root)
	return m
}

// --- the enumeration ------------------------------------------------------

// A scripted event on one view name, at the number of file-system calls
// made when it happened. A *Start event counts only once a call follows
// it; an acknowledgement counts from its own call count on.
type crashEvent struct {
	at       int
	name     string
	kind     string
	inc, seq int
}

// window is what a crash after some call may leave of one view name:
// incarnation inc at some seq in [lo, hi] (inc < 0: none), or nothing if
// absent is set.
type window struct {
	absent bool
	inc    int
	lo, hi int
}

// expected replays the script's events up to crash point k.
func expected(events []crashEvent, k int) map[string]window {
	want := map[string]window{}
	for _, e := range events {
		if strings.HasSuffix(e.kind, "Start") && e.at >= k || e.at > k {
			continue
		}
		w := want[e.name]
		switch e.kind {
		case "createStart":
			w = window{absent: true, inc: e.inc, lo: 0, hi: 1}
		case "created":
			w.absent, w.lo = false, 1
		case "mutateStart":
			w.hi = e.seq
		case "mutated":
			w.lo = e.seq
		case "dropStart":
			w.absent = true
		case "dropped":
			w = window{absent: true, inc: -1}
		}
		want[e.name] = w
	}
	return want
}

// recoveredTree is what Scheduler.Recover made of one crash tree.
type recoveredTree struct {
	views map[string][]byte // the recovered solutions
	stray []string          // names a recovered view's directory should not hold
	err   error
	panic any
}

func recoverTree(dataDir string, tree map[string][]byte) (res recoveredTree) {
	mem := memFSOf(tree)
	s := NewScheduler(SchedulerConfig{
		DataDir:     dataDir,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem},
	})
	res.views = map[string][]byte{}
	defer func() {
		if r := recover(); r != nil {
			res.panic = r
		}
		s.Close()
	}()
	_, res.err = s.Recover()
	for _, name := range s.Names() {
		_, v := s.lookup(name)
		res.views[name] = record.EncodeBatch(nil, v.Snapshot())
		// wal.log, meta.json and one or two snapshots, nothing else.
		entries, _ := mem.ReadDir(path.Join(dataDir, name))
		vf, _ := readViewDir(mem, path.Join(dataDir, name))
		if !vf.wal || !vf.meta || len(vf.snaps) == 0 || len(vf.snaps) > 2 || len(entries) != 2+len(vf.snaps) {
			for _, e := range entries {
				res.stray = append(res.stray, name+"/"+e.Name())
			}
		}
	}
	return res
}

// The crash-state outcomes, in the order a state is charged to them.
var crashColumns = []string{"recovered", "lost-ack", "phantom", "error", "panic"}

// judge charges one crash state to a column. oracle[name][inc][seq] is the
// solution after that incarnation's first seq log frames.
func judge(res recoveredTree, want map[string]window, oracle map[string][][][]byte) (col int, why string) {
	switch {
	case res.panic != nil:
		return 4, fmt.Sprint("panic: ", res.panic)
	case res.err != nil:
		return 3, res.err.Error()
	}
	for _, name := range sortedNames(want) {
		w := want[name]
		got, ok := res.views[name]
		if !ok {
			if !w.absent {
				return 1, name + " is gone"
			}
			continue
		}
		if w.inc < 0 {
			return 2, name + " is back"
		}
		in, below := false, -1
		for s, sol := range oracle[name][w.inc] {
			if bytes.Equal(sol, got) {
				in = in || s >= w.lo && s <= w.hi
				if s < w.lo {
					below = s
				}
			}
		}
		switch {
		case !in && below >= 0:
			return 1, fmt.Sprintf("%s at seq %d, acknowledged %d", name, below, w.lo)
		case !in:
			return 2, fmt.Sprintf("%s matches no seq in [%d, %d]", name, w.lo, w.hi)
		}
	}
	for _, name := range sortedNames(res.views) {
		if _, ok := want[name]; !ok {
			return 2, name + " was never created"
		}
	}
	if len(res.stray) > 0 {
		return 2, fmt.Sprint("stray files: ", res.stray)
	}
	return 0, ""
}

// crashScript is the history TestEveryCrashPoint crashes and
// TestEveryIOError fails call by call (run): a CC and an SSSP view are
// created, take 20 batches each with a checkpoint after the 10th and the
// 20th, then SSSP takes a batch it never flushes, is dropped with it pending
// and created again under its name, and CC takes a batch it never flushes
// before the scheduler closes. The script holds the views it created, so a
// view that went down stays down until the end: there, before the close,
// the scheduler brings each one back (back).
type crashScript struct {
	t      *testing.T
	mem    *memFS
	s      *Scheduler
	views  map[string]*LiveView
	events []crashEvent
	// history[name][inc] is the log frames of each incarnation.
	history map[string][][][]Mutation
	phases  []crashEvent // kind is the phase name, at where it starts
	// fsyncs per scripted operation.
	createSyncs, dropSyncs, mutateSyncs []int
	// faulty is set under a fault plan: an operation's error is noted
	// (errs), not fatal. A view's errors must wrap ErrViewDown, and once
	// one has, the view (down[name]) must refuse every later write;
	// problems lists each breach of either rule. maybe[name] is set while
	// the last frame of the view's history is a refused batch that may have
	// reached the log.
	faulty         bool
	errs           int
	mutatesRefused int
	down, maybe    map[string]bool
	problems       []string
	// clean is the clean run's oracle (TestEveryIOError sets it), which
	// back judges a view by; wentOn[name] is the log seq the view went on
	// from, notBack what went wrong bringing one back, and tookBack how long
	// each Get that brought a down view back took.
	clean    map[string][][][]byte
	wentOn   map[string]int
	notBack  []string
	tookBack []time.Duration
}

func newCrashScript(t *testing.T, mem *memFS, dataDir string, faulty bool) *crashScript {
	return &crashScript{
		t: t, mem: mem, faulty: faulty, history: map[string][][][]Mutation{}, views: map[string]*LiveView{},
		down: map[string]bool{}, maybe: map[string]bool{}, wentOn: map[string]int{},
		s: NewScheduler(SchedulerConfig{
			DataDir:     dataDir,
			DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem},
		}),
	}
}

// event and phase read the call count unlocked: the script is the one
// goroutine calling the file system.
func (c *crashScript) event(name, kind string, inc, seq int) {
	c.events = append(c.events, crashEvent{at: c.mem.calls, name: name, kind: kind, inc: inc, seq: seq})
}

func (c *crashScript) phase(name string) {
	c.phases = append(c.phases, crashEvent{at: c.mem.calls, kind: name})
}

// refused notes the error op on the view name returned: fatal without a
// fault plan, counted with one. A view's own operation (mutate, flush,
// checkpoint) must return ErrViewDown, and the view is down from then on.
func (c *crashScript) refused(name, op string, err error) {
	if !c.faulty {
		c.t.Fatalf("%s %s: %v", op, name, err)
	}
	c.errs++
	if op == "mutate" {
		c.mutatesRefused++
	}
	if op == "mutate" || op == "flush" || op == "checkpoint" {
		if !errors.Is(err, ErrViewDown) {
			c.problems = append(c.problems, fmt.Sprintf("%s %s returned an untyped error: %v", op, name, err))
		}
		c.down[name] = true
	}
}

// accepted checks that the view name was up when op on it succeeded.
func (c *crashScript) accepted(name, op string) {
	if c.down[name] {
		c.problems = append(c.problems, fmt.Sprintf("%s %s succeeded on a down view", op, name))
	}
}

func (c *crashScript) create(name string, m Maintainer, initial []Mutation) {
	inc := len(c.history[name])
	c.history[name] = append(c.history[name], [][]Mutation{initial})
	syncs, calls := c.mem.syncs, c.mem.calls
	c.event(name, "createStart", inc, 1)
	v, err := c.s.Create(name, m, initial, nil)
	if err != nil {
		if c.mem.calls == calls { // refused before it touched the disk
			c.history[name] = c.history[name][:inc]
			c.events = c.events[:len(c.events)-1]
		}
		c.refused(name, "create", err)
		return
	}
	c.views[name], c.down[name] = v, false
	c.event(name, "created", inc, 1)
	c.createSyncs = append(c.createSyncs, c.mem.syncs-syncs)
}

// mutate acknowledges batch on the view name and, with flush set,
// applies it; without, the batch stays pending in the view. A batch
// refused before any file call is no frame of the history (nor is a create
// refused so, above); one refused after may have reached the log, so it
// stays as one recovery may replay.
func (c *crashScript) mutate(name string, batch []Mutation, flush bool) {
	v := c.views[name]
	if v == nil { // its create or drop failed
		return
	}
	h := c.history[name]
	inc := len(h) - 1
	h[inc] = append(h[inc], batch)
	seq := len(h[inc])
	syncs, calls := c.mem.syncs, c.mem.calls
	c.event(name, "mutateStart", inc, seq)
	if err := v.Mutate(batch...); err != nil {
		if c.mem.calls == calls {
			h[inc] = h[inc][:seq-1]
			c.events = c.events[:len(c.events)-1]
		} else {
			c.maybe[name] = true
		}
		c.refused(name, "mutate", err)
		return
	}
	c.accepted(name, "mutate")
	c.event(name, "mutated", inc, seq)
	c.mutateSyncs = append(c.mutateSyncs, c.mem.syncs-syncs)
	if !flush {
		return
	}
	if err := v.Flush(); err != nil {
		c.refused(name, "flush", err)
		return
	}
	c.accepted(name, "flush")
}

func (c *crashScript) checkpoint() {
	for _, name := range sortedNames(c.views) {
		if err := c.views[name].Checkpoint(); err != nil {
			c.refused(name, "checkpoint", err)
			continue
		}
		c.accepted(name, "checkpoint")
	}
}

func (c *crashScript) drop(name string) {
	if c.views[name] == nil { // its create failed
		return
	}
	delete(c.views, name)
	syncs := c.mem.syncs
	c.event(name, "dropStart", 0, 0)
	if err := c.s.Drop(name); err != nil {
		c.refused(name, "drop", err)
		return
	}
	c.event(name, "dropped", 0, 0)
	c.dropSyncs = append(c.dropSyncs, c.mem.syncs-syncs)
}

// run plays the script. A clean Scheduler.Close ends it, which must make
// no file-system call.
func (c *crashScript) run() {
	c.phase("create")
	c.create("cc", CC(), []Mutation{InsertEdge(0, 1), InsertEdge(1, 2), InsertEdge(10, 11)})
	c.create("sssp", SSSP(0), []Mutation{InsertWeightedEdge(0, 1, 2), InsertWeightedEdge(1, 2, 2)})
	c.phase("mutate")
	for i := int64(0); i < 20; i++ {
		cc := []Mutation{InsertEdge(2+i, 3+i)}
		sssp := []Mutation{InsertWeightedEdge(2+i, 3+i, float64(1+i%3))}
		if i%4 == 3 { // deletes take the other maintenance paths
			cc = append(cc, DeleteEdge(i, 1+i))
			sssp = append(sssp, DeleteEdge(i-1, i), InsertWeightedEdge(0, 2+i, 9))
		}
		c.mutate("cc", cc, true)
		c.mutate("sssp", sssp, true)
		if i == 9 || i == 19 {
			c.phase("checkpoint")
			c.checkpoint()
			c.phase("mutate")
		}
	}
	c.mutate("sssp", []Mutation{InsertWeightedEdge(22, 23, 1)}, false)
	c.phase("drop")
	c.drop("sssp")
	c.phase("re-create")
	c.create("sssp", SSSP(0), []Mutation{InsertWeightedEdge(0, 5, 1)})
	c.mutate("cc", []Mutation{InsertEdge(30, 31)}, false)
	if names := c.downViews(); len(names) > 0 {
		c.phase("back")
		for _, name := range names {
			c.back(name)
		}
	}
	c.phase("close")
	calls, syncs := c.mem.calls, c.mem.syncs
	if err := c.s.Close(); err != nil {
		c.refused("", "close", err)
	}
	if c.mem.calls != calls || c.mem.syncs != syncs {
		c.problems = append(c.problems, fmt.Sprintf("Scheduler.Close made %d file-system calls, %d of them fsyncs; want none",
			c.mem.calls-calls, c.mem.syncs-syncs))
	}
}

// downViews lists the views the script holds that went down.
func (c *crashScript) downViews() []string {
	var out []string
	for _, name := range sortedNames(c.views) {
		if c.down[name] {
			out = append(out, name)
		}
	}
	return out
}

// back brings the down view name back through Scheduler.Get, the way back
// for every kind of down: it must serve again at a log seq that holds every
// acknowledged batch, with the oracle's solution there, and then take one
// more batch. A refused batch that reached the log may or may not be in
// it; the reopened view's seq tells which, and the history keeps it or
// drops it.
func (c *crashScript) back(name string) {
	notBack := func(format string, args ...any) {
		c.notBack = append(c.notBack, name+": "+fmt.Sprintf(format, args...))
	}
	wasDown := c.views[name].downErr() != nil
	start := time.Now()
	v, ok := c.s.Get(name)
	took := time.Since(start)
	switch {
	case !ok:
		notBack("gone from the scheduler")
		return
	case v.downErr() != nil:
		notBack("still down: %v", v.downErr())
		return
	}
	if wasDown {
		c.tookBack = append(c.tookBack, took)
	}
	h := c.history[name]
	inc := len(h) - 1
	seq := int(v.dur.wal.Seq())
	switch {
	case seq == len(h[inc])-1 && c.maybe[name]:
		h[inc] = h[inc][:seq]
	case seq != len(h[inc]):
		notBack("back at log seq %d, its history has %d frames", seq, len(h[inc]))
		return
	}
	if got := record.EncodeBatch(nil, v.Snapshot()); !bytes.Equal(got, c.clean[name][inc][seq]) {
		notBack("back at log seq %d with a solution the oracle does not have there", seq)
		return
	}
	c.views[name], c.down[name], c.maybe[name], c.wentOn[name] = v, false, false, seq
	c.mutate(name, []Mutation{InsertWeightedEdge(0, 40, 3)}, true)
	if c.down[name] {
		notBack("refused the batch after it came back")
	}
}

// maintainerOf is the maintainer the script runs under name.
func maintainerOf(name string) Maintainer {
	if name == "sssp" {
		return SSSP(0)
	}
	return CC()
}

// solutions is the converged solution after every prefix of frames, built
// in memory.
func solutions(t *testing.T, name string, frames [][]Mutation) [][]byte {
	v, err := NewView("oracle", maintainerOf(name), nil, ViewConfig{Config: iterative.Config{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sols := [][]byte{record.EncodeBatch(nil, v.Snapshot())}
	for _, batch := range frames {
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		sols = append(sols, record.EncodeBatch(nil, v.Snapshot()))
	}
	return sols
}

// oracle is the converged solution of every prefix of every incarnation.
func (c *crashScript) oracle() map[string][][][]byte {
	out := map[string][][][]byte{}
	for name, incs := range c.history {
		for _, frames := range incs {
			out[name] = append(out[name], solutions(c.t, name, frames))
		}
	}
	return out
}

// judged is the oracle the run's final tree is judged by: the clean run's,
// except that the incarnation of a view brought back goes on past the seq
// it came back at as this run's history did (wentOn, memoized in ext).
func (c *crashScript) judged(ext *sync.Map) map[string][][][]byte {
	out := maps.Clone(c.clean)
	for name, seq := range c.wentOn {
		incs := slices.Clone(out[name])
		inc := len(c.history[name]) - 1
		frames := c.history[name][inc]
		key := fmt.Sprint(name, frames)
		sols, ok := ext.Load(key)
		if !ok {
			sols, _ = ext.LoadOrStore(key, solutions(c.t, name, frames))
		}
		incs[inc] = append(slices.Clone(incs[inc][:seq+1]), sols.([][]byte)[seq+1:]...)
		out[name] = incs
	}
	return out
}

// TestEveryCrashPoint crashes a scheduler after every file-system call of
// crashScript, in every state the persistence model allows (memFS: synced
// bytes survive, an unsynced tail survives as any prefix, cut at and
// inside writes, an unsynced create, rename, mkdir or remove is there or
// not), and recovers each state with Scheduler.Recover. Every view must
// come back at some seq s with acked ≤ s ≤ written, a dropped view must
// stay gone, and a recovered directory holds only wal.log, meta.json and at
// most two snapshots. The table of crash states by outcome is logged with
// `go test -v -run TestEveryCrashPoint`.
func TestEveryCrashPoint(t *testing.T) {
	start := time.Now()
	const dataDir = "/data"
	mem := newMemFS(dataDir)
	type crashPoint struct {
		k    int
		note string
	}
	type crashTree struct {
		tree   map[string][]byte
		points []crashPoint
	}
	trees := map[string]*crashTree{}
	var order []string
	var enumErr error
	crashAt := func(k int, last string) {
		if err := mem.crashStates(func(tree map[string][]byte, note string) {
			key := treeKey(tree)
			ct := trees[key]
			if ct == nil {
				ct = &crashTree{tree: make(map[string][]byte, len(tree))}
				for p, b := range tree {
					ct.tree[p] = bytes.Clone(b)
				}
				trees[key] = ct
				order = append(order, key)
			}
			ct.points = append(ct.points, crashPoint{k, fmt.Sprintf("after call %d (%s): %s", k, last, note)})
		}); err != nil && enumErr == nil {
			enumErr = err
		}
	}
	mem.afterCall = func() { crashAt(mem.calls, mem.last) }

	c := newCrashScript(t, mem, dataDir, false)
	c.run()
	for _, p := range c.problems {
		t.Error(p)
	}
	// A clean Close is a crash that loses nothing unsynced: it makes no
	// call, so its crash states are the last call's plus the tree it
	// leaves, recovered as one more crash point.
	crashAt(mem.calls+1, "Scheduler.Close")
	if enumErr != nil {
		t.Fatal(enumErr)
	}
	for _, n := range c.mutateSyncs {
		if n != 1 {
			t.Errorf("an acknowledged Mutate made %d fsyncs, want 1", n)
		}
	}
	for _, n := range c.dropSyncs {
		if n != 2 {
			t.Errorf("a Drop of a view with a pending batch made %d fsyncs, want 2", n)
		}
	}

	// Recover every distinct tree once, and judge each crash state that
	// left it against its own window.
	oracle := c.oracle()
	counts := map[string][]int{}
	var phases []string // in script order
	for _, ph := range c.phases {
		if counts[ph.kind] == nil {
			counts[ph.kind] = make([]int, len(crashColumns))
			phases = append(phases, ph.kind)
		}
	}
	phaseOf := func(k int) string {
		i := sort.Search(len(c.phases), func(i int) bool { return c.phases[i].at >= k }) - 1
		return c.phases[max(i, 0)].kind
	}
	var failures []string
	states := 0
	for _, key := range order {
		ct := trees[key]
		res := recoverTree(dataDir, ct.tree)
		for _, p := range ct.points {
			col, why := judge(res, expected(c.events, p.k), oracle)
			counts[phaseOf(p.k)][col]++
			states++
			if col != 0 {
				failures = append(failures, fmt.Sprintf("%s: %s — %s", crashColumns[col], p.note, why))
			}
		}
	}

	// The table: crash states by phase and outcome.
	t.Logf("| phase | crash states | %s |", strings.Join(crashColumns, " | "))
	t.Logf("|---|---:|---:|---:|---:|---:|---:|")
	total := make([]int, len(crashColumns))
	row := func(name string, r []int) {
		sum, cells := 0, make([]string, len(r))
		for j, n := range r {
			sum += n
			cells[j] = fmt.Sprint(n)
		}
		t.Logf("| %s | %d | %s |", name, sum, strings.Join(cells, " | "))
	}
	for _, ph := range phases {
		row(ph, counts[ph])
		for j, n := range counts[ph] {
			total[j] += n
		}
	}
	row("**total**", total)
	t.Log("")
	t.Logf("%d file-system calls, %d crash states, %d distinct trees recovered; fsyncs per Create %v, per Drop %v, per Mutate 1, per Close 0; %.1f s wall",
		mem.calls, states, len(order), c.createSyncs, c.dropSyncs, time.Since(start).Seconds())
	for i, f := range failures {
		if i == 20 {
			t.Errorf("... and %d more failing crash states", len(failures)-i)
			break
		}
		t.Error(f)
	}
	if states == 0 {
		t.Fatal("no crash states enumerated")
	}
}

// TestCleanRestartWritesNothing: recovery replays the frames past the
// newest snapshot and leaves them in the log for the next snapshot to fold
// in, so a clean restart with a replayed tail creates, renames and fsyncs
// nothing; the next open replays the same frames again.
func TestCleanRestartWritesNothing(t *testing.T) {
	const dataDir = "/data"
	mem := newMemFS(dataDir)
	cfg := SchedulerConfig{
		DataDir:     dataDir,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, fs: mem},
	}
	s := NewScheduler(cfg)
	v, err := s.Create("cc", CC(), []Mutation{InsertEdge(0, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := v.Mutate(InsertEdge(i, i+1)); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mem.settle(mem.root)

	for restart := 1; restart <= 2; restart++ {
		var calls []string
		mem.afterCall = func() { calls = append(calls, mem.last) }
		syncs := mem.syncs
		s := NewScheduler(cfg)
		if n, err := s.Recover(); err != nil || n != 1 {
			t.Fatalf("restart %d: recovered %d views (%v), want 1", restart, n, err)
		}
		got, _ := s.Get("cc")
		if r := got.Stats().RecoveredFrames; r != 3 {
			t.Fatalf("restart %d replayed %d frames, want the 3 past the base snapshot", restart, r)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 0 || mem.syncs != syncs {
			t.Fatalf("restart %d wrote to the file system: %d fsyncs, calls %q", restart, mem.syncs-syncs, calls)
		}
	}
}
