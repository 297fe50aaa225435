package live

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
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
