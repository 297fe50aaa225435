package iterative

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/optimizer"
)

// TestSingleSuperstepLoop pins the engine-unification invariant: exactly
// one for loop in this package drives supersteps — driver.run — and every
// entry point (bulk, incremental, resumed, driven, auto) goes through it.
// A second superstep loop creeping in means an engine forked off the
// shared driver and its barrier/telemetry/re-optimization semantics can
// silently drift; this test makes that a compile-adjacent failure instead
// of a code-review hope.
func TestSingleSuperstepLoop(t *testing.T) {
	loop := regexp.MustCompile(`for\s+step\s*:=\s*0\s*;\s*step\s*<`)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Clean(name))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(loop.FindAll(src, -1)); n > 0 {
			found[name] = n
		}
	}
	if len(found) != 1 || found["driver.go"] != 1 {
		t.Fatalf("superstep loops per file = %v, want exactly one, in driver.go", found)
	}
}

// failingReplanner is an engine whose workset collapses after one
// superstep and whose re-plan then fails.
type failingReplanner struct {
	steps int
	err   error
}

func (p *failingReplanner) step(int) (stepOutcome, error) {
	p.steps++
	return stepOutcome{next: 10}, nil
}
func (p *failingReplanner) feed()                  {}
func (p *failingReplanner) reoptimizeWanted() bool { return true }
func (p *failingReplanner) replan(int64) (*optimizer.PhysPlan, error) {
	return nil, p.err
}
func (p *failingReplanner) swap(*optimizer.PhysPlan) int64 { return 0 }

// TestReplanFailureFailsRun: a re-plan the driver decided on that errors
// ends the run with an error naming the (absolute) superstep, as a worker
// applying the plan epoch does; no further superstep runs.
func TestReplanFailureFailsRun(t *testing.T) {
	boom := errors.New("boom")
	p := &failingReplanner{err: boom}
	d := &driver{policy: p, maxSteps: 100, traceBase: 5, worksetDriven: true,
		reopt: &reoptState{plannedEst: 1000}, trace: &metrics.Trace{}}
	converged, err := d.run()
	if converged || !errors.Is(err, boom) {
		t.Fatalf("run = (%v, %v), want the re-plan error", converged, err)
	}
	if want := "iterative: re-plan at superstep 5: boom"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if p.steps != 1 {
		t.Errorf("%d supersteps ran, want 1", p.steps)
	}
}
