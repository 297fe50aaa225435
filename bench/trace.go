package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layers a span can be charged to: the repo's modules (internal/<name>),
// with runtime's solution set and live's HTTP API split out because
// optimisations target them separately. layerBench is the benchmark's own
// time inside an operation (a late load generator, gaps between calls):
// the unattributed remainder.
const (
	layerBench     = "bench"
	layerOptimizer = "optimizer"
	layerRuntime   = "runtime"
	layerSolution  = "runtime.solution"
	layerIterative = "iterative"
	layerLive      = "live"
	layerHTTP      = "live.http"
)

// shareMetric names the per-layer metric that reports a layer's share of
// the budget.
var shareMetric = map[string]string{
	layerOptimizer: "share_optimizer", layerRuntime: "share_runtime",
	layerSolution: "share_solution", layerIterative: "share_iterative",
	layerLive: "share_live", layerHTTP: "share_http", layerBench: "share_unattributed",
}

// span is one timed call into a layer. Spans of one repetition, batch or
// request share a Trace id; Parent is the ID of the span that caused it
// (0 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Records is the number of input records the call consumed, where the
	// caller knows it (a superstep's workset), for per-record ratios.
	Records int `json:"records,omitempty"`

	tr *tracer
}

// tracer keeps spans in memory until the workload ends. A nil tracer (the
// untraced run) records nothing: every method is a no-op on nil, so the
// workloads call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // the serving workload records from two connections
	spans []*span
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent *span, name, layer string, start, end time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Layer: layer, Start: start.Sub(t.epoch).Nanoseconds(), tr: t}
	if !end.IsZero() {
		s.End = end.Sub(t.epoch).Nanoseconds()
	}
	t.mu.Lock()
	if parent == nil {
		t.trace++
		s.Trace = t.trace
	} else {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// root opens a new trace: one repetition, batch or request.
func (t *tracer) root(name string, start time.Time) *span {
	return t.add(nil, name, layerBench, start, time.Time{})
}

// start opens a child span now.
func (t *tracer) start(parent *span, name, layer string) *span {
	if t == nil {
		return nil
	}
	return t.add(parent, name, layer, time.Now(), time.Time{})
}

// closed records a child span whose interval is already known (measured
// by the callee and reported in its result, or by the load generator).
func (t *tracer) closed(parent *span, name, layer string, start time.Time, d time.Duration) *span {
	return t.add(parent, name, layer, start, start.Add(d))
}

func (s *span) end() {
	if s != nil {
		s.End = time.Since(s.tr.epoch).Nanoseconds()
	}
}

// endAt closes a span whose end was observed earlier.
func (s *span) endAt(t time.Time) {
	if s != nil {
		s.End = t.Sub(s.tr.epoch).Nanoseconds()
	}
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// mark returns a position; since(mark) is every span recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[mark:]
}

// named filters spans by name.
func named(spans []*span, name string) []*span {
	var out []*span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// budget is a layer budget: where the traced operations' time went.
type budget struct {
	// Traces is the number of root spans it sums over.
	Traces int `json:"traces"`
	// TotalMS is the summed duration of those roots.
	TotalMS float64 `json:"total_ms"`
	// SelfMS is each layer's self time: its spans' durations minus the
	// part their child spans cover. The roots' own self time — time inside
	// an operation that no layer span covers — is under layerBench: the
	// unattributed remainder.
	SelfMS map[string]float64 `json:"self_ms"`
}

// budgetOf sums self time per layer over the given spans (whole traces).
func budgetOf(spans []*span) *budget {
	b := &budget{SelfMS: map[string]float64{}}
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			b.Traces++
			b.TotalMS += s.dur().Seconds() * 1e3
		}
		b.SelfMS[s.Layer] += (s.dur() - children[s.ID]).Seconds() * 1e3
	}
	return b
}

// share is a layer's part of the traced operations' total time.
func (b *budget) share(layer string) float64 {
	if b == nil || b.TotalMS == 0 {
		return 0
	}
	return b.SelfMS[layer] / b.TotalMS
}

func (b *budget) String() string {
	layers := make([]string, 0, len(b.SelfMS))
	for l := range b.SelfMS {
		if l != layerBench {
			layers = append(layers, l)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return b.SelfMS[layers[i]] > b.SelfMS[layers[j]] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "  layer budget over %d traced operations, %.1f ms:\n", b.Traces, b.TotalMS)
	for _, l := range layers {
		fmt.Fprintf(&sb, "    %-18s %10.2f ms  %5.1f %%\n", l, b.SelfMS[l], 100*b.share(l))
	}
	fmt.Fprintf(&sb, "    %-18s %10.2f ms  %5.1f %%\n", "unattributed", b.SelfMS[layerBench], 100*b.share(layerBench))
	return sb.String()
}
