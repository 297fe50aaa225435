package live

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// nonTestSources reads this package's non-test Go files by name.
func nonTestSources(t *testing.T) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if out[name], err = os.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSingleMaintenancePath pins the one-algorithm invariant: exactly one
// Apply(batch []Mutation) method exists in this package — the session's —
// and the in-process twin it replaced stays gone. A second Apply means a
// host count has grown its own maintenance decisions again, and the two
// will drift (fold thresholds, delete classification) the way they did
// before; this makes that a test failure instead of a code-review hope.
//
// It pins the same for the control verbs: a verb's body runs only from the
// one handler every host serves with (shardCore.serve), host 0 included,
// and records and mutations meet their wire form only in the control
// connection's codec (ctlConn's methods; the WAL's frames in wal.go too).
func TestSingleMaintenancePath(t *testing.T) {
	apply := regexp.MustCompile(`func \([^)]*\) Apply\(batch \[\]Mutation\)`)
	forked := regexp.MustCompile(`\b(localSession|distSession|SessionProvider)\b`)
	applies := map[string]int{}
	for name, src := range nonTestSources(t) {
		if n := len(apply.FindAll(src, -1)); n > 0 {
			applies[name] = n
		}
		if id := forked.Find(src); id != nil {
			t.Errorf("%s still names %s", name, id)
		}
	}
	if len(applies) != 1 || applies["shard.go"] != 1 {
		t.Fatalf("Apply(batch []Mutation) methods per file = %v, want exactly one, in shard.go", applies)
	}

	only := map[string][]string{ // callee → the functions that may call it
		"absorb": {"shardCore.serve"}, "settle": {"shardCore.serve"},
		"gatherRound": {"shardCore.serve"}, "seedRound": {"shardCore.serve"},
		"packRecords": {"ctlConn.send"}, "unpackRecords": {"ctlConn.read"},
		"appendMutations": {"ctlConn.send", "wal.go"}, "decodeMutations": {"ctlConn.read", "wal.go"},
	}
	calls := map[string]int{}
	for file, callers := range callSites(t) {
		for callee, fns := range callers {
			for _, fn := range fns {
				calls[callee]++
				if allowed := only[callee]; allowed != nil && !slices.Contains(allowed, fn) && !slices.Contains(allowed, file) {
					t.Errorf("%s: %s calls %s; only %v may", file, fn, callee, allowed)
				}
			}
		}
	}
	for callee := range only {
		if calls[callee] == 0 {
			t.Errorf("nothing calls %s", callee)
		}
	}
}

// callSites maps each non-test file of this package to the functions
// called in it by name, each with the functions (Recv.Name, or Name) whose
// bodies call it.
func callSites(t *testing.T) map[string]map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]map[string][]string{}
	for name, src := range nonTestSources(t) {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		callers := map[string][]string{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				fn = recv.(*ast.Ident).Name + "." + fn
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch f := call.Fun.(type) {
					case *ast.Ident:
						callers[f.Name] = append(callers[f.Name], fn)
					case *ast.SelectorExpr:
						callers[f.Sel.Name] = append(callers[f.Sel.Name], fn)
					}
				}
				return true
			})
		}
		out[name] = callers
	}
	return out
}

// TestSingleRecoveryPath pins the same invariant for durability: recovery
// never asks whether a view is sharded. One function opens snapshot files
// for reading, whatever wrote them and whatever topology reads them; the
// record-materializing loader, the graph's second encoding, the per-call-
// site maintainer recipes and the whole-solution field of view_open stay
// gone; and wal.go holds no branch on the worker count. A second loader
// means the two will drift again (which seq they trust, what they hold in
// memory), the way loadSnapshot and loadSnapshotRecords did.
func TestSingleRecoveryPath(t *testing.T) {
	gone := regexp.MustCompile(`\b(loadSnapshotRecords|dumpGraph|loadGraph|viewMeta|wireIdentity)\b`)
	sources := nonTestSources(t)
	for name, src := range sources {
		if id := gone.Find(src); id != nil {
			t.Errorf("%s still names %s", name, id)
		}
		if bytes.Contains(src, []byte("\t\"os\"\n")) && name != "fsys.go" {
			t.Errorf("%s imports os; a durable view's files go through fsys (fsys.go)", name)
		}
		opens := regexp.MustCompile(`\.Open\([^\n]*`).FindAll(src, -1)
		for _, open := range opens {
			if name != "wal.go" && name != "fsys.go" && !bytes.Contains(open, []byte("metaFileName")) {
				t.Errorf("%s opens %s for reading; snapshot files are read in wal.go only", name, open)
			}
		}
	}
	if _, ok := reflect.TypeOf(shardMsg{}).FieldByName("Sol"); ok {
		t.Error("shardMsg carries a Sol field again: recovery ships whole solutions in one message")
	}
	wal := string(sources["wal.go"])
	if n := strings.Count(wal, ".Open("); n != 1 {
		t.Errorf("wal.go opens files for reading in %d places, want exactly one", n)
	}
	reader := regexp.MustCompile(`(?s)\nfunc readSnapshotFile\(.*?\n}\n`).FindString(wal)
	if !strings.Contains(reader, ".Open(") {
		t.Error("the one Open of wal.go is not in readSnapshotFile")
	}
	for _, branch := range []string{"len(cfg.Workers)", "workerShards > 0"} {
		if strings.Contains(wal, branch) {
			t.Errorf("wal.go branches on topology again: %s", branch)
		}
	}
}
