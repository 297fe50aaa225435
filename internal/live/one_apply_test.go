package live

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSingleMaintenancePath pins the one-algorithm invariant: exactly one
// Apply(batch []Mutation) method exists in this package — the session's —
// and the in-process twin it replaced stays gone. A second Apply means a
// host count has grown its own maintenance decisions again, and the two
// will drift (fold thresholds, delete classification) the way they did
// before; this makes that a test failure instead of a code-review hope.
func TestSingleMaintenancePath(t *testing.T) {
	apply := regexp.MustCompile(`func \([^)]*\) Apply\(batch \[\]Mutation\)`)
	forked := regexp.MustCompile(`\b(localSession|distSession|SessionProvider)\b`)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	applies := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
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
