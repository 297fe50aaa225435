package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// machine identifies where and from what a result file was measured.
type machine struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Scale      string  `json:"scale"`
}

func fingerprint(seed uint64, seconds float64, scale string) machine {
	m := machine{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, WindowS: seconds, Scale: scale}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the regression driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// summary is one end-to-end metric of one workload over a file's sets.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run noise band; 0 with fewer
	// than two sets.
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Fingerprint machine     `json:"fingerprint"`
	Sets        int         `json:"sets"`
	Results     []runResult `json:"results"`
	// Summary is workload → end-to-end metric → statistics over the
	// untraced runs; Failed is workload → failed operations over them.
	Summary map[string]map[string]summary `json:"summary"`
	Failed  map[string]int                `json:"failed"`
}

func (f *resultFile) summarize() {
	f.Summary, f.Failed = map[string]map[string]summary{}, map[string]int{}
	values := map[string]map[string][]float64{}
	for _, r := range f.Results {
		if r.Traced {
			continue
		}
		f.Failed[r.Workload] += r.Failed
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	for w, byMetric := range values {
		f.Summary[w] = map[string]summary{}
		for name, xs := range byMetric {
			s := summary{Median: median(xs), N: len(xs)}
			if len(xs) >= 2 {
				s.Q1, s.Q3 = quartiles(xs)
				s.Spread = (s.Q3 - s.Q1) / s.Median
			}
			f.Summary[w][name] = s
		}
	}
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle ones; 0 when
// there are no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank percentile of xs (p in [0,1]); 0 when
// there are no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method), which is
// what the regression driver computes its spread from.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (f *resultFile) printSummary() {
	fmt.Printf("\nsummary over %d set(s), untraced runs (median [q1 .. q3] spread):\n", f.Sets)
	for _, w := range workloads {
		for _, d := range endToEnd {
			s, ok := f.Summary[w.Name][d.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-20s %-14s %12.4f %-3s [%.4f .. %.4f] %5.1f %%  n=%d\n",
				w.Name, d.Name, s.Median, d.Unit, s.Q1, s.Q3, 100*s.Spread, s.N)
		}
	}
}

// compareFiles prints one row per workload × end-to-end metric of two
// result files — both medians, the ratio with its base, and a verdict from
// the metric's own bound — and returns the exit code: non-zero when a
// metric regressed or a workload failed more operations than before.
func compareFiles(basePath, newPath string) int {
	var base, next resultFile
	for path, f := range map[string]*resultFile{basePath: &base, newPath: &next} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Printf("base %s (%s, %d sets)  new %s (%s, %d sets)\n", basePath, base.Fingerprint.Commit, base.Sets,
		newPath, next.Fingerprint.Commit, next.Sets)
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, okA := base.Summary[w.Name][d.Name]
			b, okB := next.Summary[w.Name][d.Name]
			if !okA || !okB {
				continue
			}
			worse := (b.Median - a.Median) / a.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(a.Spread, b.Spread) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Printf("  %-20s %-14s base %12.4f %-3s new %12.4f  new/base %.3f  spread %4.1f %% / %4.1f %%  bound %2.0f %%  %s\n",
				w.Name, d.Name, a.Median, d.Unit, b.Median, b.Median/a.Median, 100*a.Spread, 100*b.Spread, 100*d.Bound, verdict)
		}
		if next.Failed[w.Name] > base.Failed[w.Name] {
			fmt.Printf("  %-20s failed operations rose from %d to %d\n", w.Name, base.Failed[w.Name], next.Failed[w.Name])
			code = 1
		}
	}
	return code
}
