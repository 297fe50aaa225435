// Command bench is the repo's performance ledger: six seeded workloads
// over the library, live-maintenance and serving tiers, each measured end
// to end (untraced) and per layer (traced), every output checked against
// an oracle. See README.md in this directory and BENCHMARK.json at the
// root of the repo.
//
//	go run ./bench                         # one full set, bench/out/result.json
//	go run ./bench -workload cc-longtail -sets 10 -trace 0
//	go run ./bench -compare a.json b.json
//
// The regression driver runs one workload per process:
//
//	go run ./bench --workload cc-powerlaw --seed 3 --seconds 15 --trace 0
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/record"
)

// metricDef names one metric of the ledger.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for per-layer
	// metrics, which are reported and never gated).
	Bound float64
}

// endToEnd are the gated metrics; BENCHMARK.json repeats them and
// bench_test.go keeps the two in step. Every workload reports all three:
//
//	op_p50_ms    median latency of the workload's frequent operation —
//	             one complete fixpoint (library), one insert-batch apply
//	             (live), one query timed from when it was due (serving);
//	heavy_p50_ms median latency of its expensive operation — the same
//	             fixpoint single-threaded (library), one delete-batch apply
//	             (live), one 64-insert mutation request applied and visible
//	             (serving);
//	setup_s      input generation plus spec, view or server construction,
//	             including the cold fixpoint of a resident view.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"heavy_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the layer they price.
// A metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// record: batch codec and CRC framing over the workload's final solution.
	{"codec_ns_per_record", "ns", "lower", 0},
	{"codec_bytes_per_record", "B", "lower", 0},
	{"frame_ns_per_record", "ns", "lower", 0},
	{"frame_bytes_per_record", "B", "lower", 0},
	// optimizer: planning the workload's own spec.
	{"plan_cost_us", "us", "lower", 0},
	{"plan_greedy_us", "us", "lower", 0},
	{"plan_cache_hit_us", "us", "lower", 0},
	{"replans_per_op", "count", "lower", 0},
	{"plan_cache_hits_per_op", "count", "higher", 0},
	// runtime: sessions, exchanges, operators.
	{"supersteps_per_op", "count", "lower", 0},
	{"superstep_p50_ms", "ms", "lower", 0},
	{"superstep_max_ms", "ms", "lower", 0},
	{"step_ns_per_record", "ns", "lower", 0},
	{"alloc_bytes_per_record", "B", "lower", 0},
	{"records_shipped_per_op", "count", "lower", 0},
	{"batches_allocated_per_op", "count", "lower", 0},
	{"batches_recycled_per_op", "count", "higher", 0},
	// runtime solution set (compact backend).
	{"merge_ns_per_record", "ns", "lower", 0},
	{"lookup_ns", "ns", "lower", 0},
	{"solution_bytes_per_record", "B", "lower", 0},
	// runtime transport.
	{"transport_ns_per_record", "ns", "lower", 0},
	{"transport_bytes_per_record", "B", "lower", 0},
	// iterative driver.
	{"step_overhead_us", "us", "lower", 0},
	// live maintenance.
	{"fast_apply_p50_ms", "ms", "lower", 0},
	{"partial_apply_p50_ms", "ms", "lower", 0},
	{"full_apply_p50_ms", "ms", "lower", 0},
	{"maint_supersteps_per_batch", "count", "lower", 0},
	{"useful_ratio", "ratio", "higher", 0},
	// live WAL and snapshots.
	{"wal_append_p50_ms", "ms", "lower", 0},
	{"wal_bytes_per_mutation", "B", "lower", 0},
	{"durable_mutate_ratio", "ratio", "lower", 0},
	{"snapshot_ms", "ms", "lower", 0},
	{"recover_ms", "ms", "lower", 0},
	// live HTTP/JSON.
	{"http_overhead_us", "us", "lower", 0},
	{"json_bytes_per_mutation", "B", "lower", 0},
	// distrib control plane.
	{"shard_remote_query_us", "us", "lower", 0},
	// obs: cost of the benchmark's spans, and of Config.Obs.
	{"trace_overhead_ratio", "ratio", "lower", 0},
	{"obs_overhead_ratio", "ratio", "lower", 0},
	// End-to-end diagnostics too noisy or too workload-specific to gate.
	{"stream_s", "s", "lower", 0},
	{"op_p99_ms", "ms", "lower", 0},
	{"heavy_p95_ms", "ms", "lower", 0},
	{"max_ok_rate", "1/s", "higher", 0},
	{"gen_late_p99_ms", "ms", "lower", 0},
	{"peak_heap_mb", "MB", "lower", 0},
	// Layer budget: each layer's self time as a share of the traced
	// operations' total; share_unattributed is what no layer span covers.
	{"share_optimizer", "ratio", "lower", 0},
	{"share_runtime", "ratio", "lower", 0},
	{"share_solution", "ratio", "lower", 0},
	{"share_iterative", "ratio", "lower", 0},
	{"share_live", "ratio", "lower", 0},
	{"share_http", "ratio", "lower", 0},
	{"share_unattributed", "ratio", "lower", 0},
}

// workloadDef names one workload; Why is repeated in BENCHMARK.json.
type workloadDef struct {
	Name string
	Run  func(*env) (*outcome, error)
}

var workloads = []workloadDef{
	{"cc-powerlaw", func(e *env) (*outcome, error) { return runLibrary(e, ccPowerlaw) }},
	{"cc-longtail", func(e *env) (*outcome, error) { return runLibrary(e, ccLongtail) }},
	{"pagerank-bulk", func(e *env) (*outcome, error) { return runLibrary(e, pagerankBulk) }},
	{"live-churn-local", func(e *env) (*outcome, error) { return runChurn(e, false) }},
	{"live-churn-sharded", func(e *env) (*outcome, error) { return runChurn(e, true) }},
	{"serve-durable-mixed", runServe},
}

// env is what one run of one workload is given.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool
	// par is both Parallelism and GOMAXPROCS: the box's processors.
	par int
	// tr is nil in the untraced run.
	tr *tracer
	// dir is a scratch directory for the run's data, removed afterwards.
	dir string
}

// window is the measuring time of one of `parts` equal phases.
func (e *env) window(parts int) time.Duration {
	return time.Duration(e.seconds / float64(parts) * float64(time.Second))
}

// setupRepeats is how often a workload's set-up is repeated; setup_s is
// the median.
const setupRepeats = 3

// smallWorkset bounds the supersteps step_overhead_us is taken over: with
// fewer records than this a superstep is all fixed cost.
const smallWorkset = 64

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	sizes             map[string]int64
	// solution is the workload's final solution, the micro-probes' data.
	solution []record.Record
	budget   *budget
	notes    []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, sizes: map[string]int64{}}
}

// set records a metric with the number of samples behind it.
func (o *outcome) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) { // a ratio over no samples; JSON has no such number
		v = 0
	}
	o.values[name], o.samples[name] = v, samples
}

func (o *outcome) size(name string, v int64) { o.sizes[name] = v }

// repeatFor calls f until d has passed and it ran at least minReps times.
func repeatFor(d time.Duration, minReps int, f func() error) error {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < d; n++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// metricJSON is one metric in a result.
type metricJSON struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one run of one workload, as the result file keeps it.
type runResult struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Traced    bool                  `json:"traced"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Error     string                `json:"error,omitempty"`
	WindowS   float64               `json:"window_s"`
	WallS     float64               `json:"wall_s"`
	Sizes     map[string]int64      `json:"sizes,omitempty"`
	Metrics   map[string]metricJSON `json:"metrics"`
	Budget    *budget               `json:"budget,omitempty"`
	Notes     []string              `json:"notes,omitempty"`
}

// runOne runs one workload once and prints its metrics.
func runOne(w workloadDef, seed uint64, seconds float64, traced, tiny bool, outDir string) runResult {
	res := runResult{Workload: w.Name, Seed: seed, Traced: traced, WindowS: seconds,
		Metrics: map[string]metricJSON{}}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		res.Error = err.Error()
		return res
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: seconds, traced: traced, tiny: tiny,
		par: runtime.GOMAXPROCS(0), dir: dir}
	defs := endToEnd
	if traced {
		e.tr, defs = newTracer(), perLayer
	}
	start := time.Now()
	out, err := w.Run(e)
	res.WallS = time.Since(start).Seconds()
	if out != nil {
		res.Attempted, res.Failed = out.attempted, out.failed
	}
	if err != nil {
		res.Error = err.Error()
		res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
		return res
	}
	res.Correct = true
	res.Sizes, res.Budget, res.Notes = out.sizes, out.budget, out.notes
	if traced {
		for layer, name := range shareMetric {
			out.set(name, out.budget.share(layer), 0)
		}
		if err := e.tr.write(filepath.Join(outDir, "TRACE_"+w.Name+".json")); err != nil {
			res.Notes = append(res.Notes, "trace not written: "+err.Error())
		}
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricJSON{Value: out.values[d.Name], Unit: d.Unit, Samples: out.samples[d.Name]}
	}
	return res
}

func (r runResult) print() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s seed=%d %s window=%gs wall=%.1fs attempted=%d failed=%d sizes=%v\n",
		r.Workload, r.Seed, mode, r.WindowS, r.WallS, r.Attempted, r.Failed, r.Sizes)
	if r.Error != "" {
		fmt.Printf("  FAILED: %s\n", r.Error)
		return
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-28s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	if r.Budget != nil {
		fmt.Print(r.Budget)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// contractLine is the one-line result the regression driver reads.
func (r runResult) contractLine() string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]m{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = m{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line) // a struct of plain values cannot fail to marshal
	return string(b)
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Uint64("seed", 1, "workload seed; set i of -sets uses seed+i")
		seconds = flag.Float64("seconds", 15, "measuring window per run, in seconds")
		trace   = flag.Int("trace", -1, "0: untraced run only, 1: traced run only, -1: both")
		sets    = flag.Int("sets", 1, "how many times to run the selected workloads")
		scale   = flag.String("scale", "full", "input size: full, or tiny for tests")
		outPath = flag.String("out", filepath.Join("bench", "out", "result.json"), "result file; traces and scratch data go beside it")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *sets < 1 || *seconds <= 0 || (*scale != "full" && *scale != "tiny") {
		fatalf("bad arguments; see -help")
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.Name == n })
			if i < 0 {
				fatalf("unknown workload %q", n)
			}
			selected = append(selected, workloads[i])
		}
	}
	outDir := filepath.Dir(*outPath)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	file := resultFile{Fingerprint: fingerprint(*seed, *seconds, *scale), Sets: *sets}
	ok := true
	for set := 0; set < *sets; set++ {
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if (*trace == 0 && traced) || (*trace == 1 && !traced) {
					continue
				}
				r := runOne(w, *seed+uint64(set), *seconds, traced, *scale == "tiny", outDir)
				r.print()
				ok = ok && r.Correct
				file.Results = append(file.Results, r)
			}
		}
	}
	file.summarize()
	if err := file.write(*outPath); err != nil {
		fatalf("%v", err)
	}
	if len(file.Results) == 1 {
		fmt.Println(file.Results[0].contractLine())
	} else {
		file.printSummary()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
