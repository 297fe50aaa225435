package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/iterative"
	"repro/internal/record"
)

// manifest is BENCHMARK.json at the root of the repo.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatches keeps BENCHMARK.json and the program's own tables in
// step: same workloads, same metrics, same units, directions and bounds.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, g, w)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func waitForGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before it ran\n%s", what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced on two
// seeds and traced on one: the oracles must pass, every metric BENCHMARK.json
// names must come out with its unit, and nothing may be left behind — no
// goroutine (the worker's accept loop, the HTTP server, the heap sampler)
// and no scratch directory.
func TestWorkloadsTiny(t *testing.T) {
	m := readManifest(t)
	outDir := t.TempDir()
	for _, w := range workloads {
		for _, run := range []struct {
			seed   uint64
			traced bool
			names  []manifestMetric
		}{{1, false, m.EndToEnd}, {7, false, m.EndToEnd}, {1, true, m.PerLayer}} {
			baseline := runtime.NumGoroutine()
			r := runOne(w, run.seed, 0.3, run.traced, true, outDir)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.Name, run.seed, run.traced, r.Correct, r.Attempted, r.Failed, r.Error)
			}
			for _, d := range run.names {
				got, ok := r.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) || got.Value < 0 {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.Name, run.traced, d.Name, got, ok, d.Unit)
				}
				if !run.traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if run.traced {
				if r.Budget == nil || r.Budget.Traces == 0 {
					t.Errorf("%s: traced run has no layer budget", w.Name)
				}
				if _, err := os.Stat(filepath.Join(outDir, "TRACE_"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
			if line := r.contractLine(); !json.Valid([]byte(line)) {
				t.Errorf("%s: result line is not JSON: %s", w.Name, line)
			}
			waitForGoroutines(t, baseline, w.Name)
			if left, _ := filepath.Glob(filepath.Join(outDir, "run-*")); len(left) != 0 {
				t.Errorf("%s left scratch directories behind: %v", w.Name, left)
			}
		}
	}
}

// TestChurnSnapshotsIdentical: the local and the sharded live workload get
// the same graph and stream, and must end in byte-identical snapshots.
func TestChurnSnapshotsIdentical(t *testing.T) {
	e := &env{seed: 3, tiny: true, par: 2}
	var snaps [2][]record.Record
	for i, sharded := range []bool{false, true} {
		c, err := churnOnce(e, newOutcome(), sharded, iterative.Config{Parallelism: e.par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = c.solution
		sort.Slice(snaps[i], func(a, b int) bool { return record.Less(snaps[i][a], snaps[i][b]) })
	}
	if len(snaps[0]) != len(snaps[1]) {
		t.Fatalf("local snapshot has %d records, sharded %d", len(snaps[0]), len(snaps[1]))
	}
	for i := range snaps[0] {
		if !snaps[0][i].Equal(snaps[1][i]) {
			t.Fatalf("record %d: local %v, sharded %v", i, snaps[0][i], snaps[1][i])
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the regression driver computes its spread with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, op, spread float64, failed int) string {
		f := resultFile{Sets: 5, Summary: map[string]map[string]summary{
			"cc-powerlaw": {"op_p50_ms": {Median: op, Spread: spread, N: 5}}},
			Failed: map[string]int{"cc-powerlaw": failed}}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[0].Bound // op_p50_ms
	base := write("base.json", 100, 0.02, 0)
	for _, c := range []struct {
		name   string
		path   string
		want   int
		reason string
	}{
		{"within", write("within.json", 100*(1+0.8*bound), 0.02, 0), 0, "worse by less than the bound"},
		{"regressed", write("regressed.json", 100*(1+1.5*bound), 0.02, 0), 1, "worse by more than the bound"},
		{"unresolved", write("noisy.json", 100*(1+1.5*bound), 1.5*bound, 0), 0, "a spread wider than the bound cannot resolve a regression"},
		{"failures", write("failing.json", 100, 0.02, 3), 1, "more failed operations than the base"},
	} {
		if got := compareFiles(base, c.path); got != c.want {
			t.Errorf("%s: exit code %d, want %d (%s)", c.name, got, c.want, c.reason)
		}
	}
}
