package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/metrics"
)

// Collector is a callback that contributes point-in-time gauges to a
// scrape. labels is the Prometheus inner label text without braces (e.g.
// `view="pr"`), or empty.
type Collector func(emit func(name, labels string, value float64))

// Registry owns one process's exportable telemetry: named latency
// histograms, a span ring, a shared counter set, and gauge collectors.
// It renders everything as Prometheus text and expvar-style JSON, and
// mounts them (plus pprof) on an http.Handler.
//
// All methods are safe for concurrent use; Histogram is get-or-create so
// independent layers can name the same series without coordination.
type Registry struct {
	mu         sync.Mutex
	hists      map[string]*Histogram
	counters   *metrics.Counters
	collectors []Collector
	ring       *Ring
}

// NewRegistry creates a registry with a DefaultRingSpans-sized span ring
// and a fresh counter set.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: &metrics.Counters{},
		ring:     NewRing(0),
	}
}

// Histogram returns the named histogram, creating it on first use. Names
// are snake_case duration series without unit suffix (the exporter
// appends `_seconds`): "superstep_duration", "live_query_duration", ...
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Trace returns the registry's span ring (its TraceSink).
func (r *Registry) Trace() *Ring { return r.ring }

// Counters returns the registry's counter set, the one /metrics and
// /debug/vars export. Every session and view reporting to the registry
// records into it, so a process hosting several exports all of their
// work.
func (r *Registry) Counters() *metrics.Counters { return r.counters }

// RegisterCollector adds a gauge collector invoked on every scrape.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// snapshot copies the registry's mutable state under the lock so a scrape
// renders without holding it.
func (r *Registry) snapshot() (names []string, hists []*Histogram, c *metrics.Counters, cols []Collector, ring *Ring) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names = make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	hists = make([]*Histogram, len(names))
	for i, n := range names {
		hists[i] = r.hists[n]
	}
	return names, hists, r.counters, append([]Collector(nil), r.collectors...), r.ring
}

// snakeCase converts a Go field name to a Prometheus-style metric name:
// RecordsShipped → records_shipped, UDFInvocations → udf_invocations.
func snakeCase(name string) string {
	var b strings.Builder
	rs := []rune(name)
	for i, r := range rs {
		if unicode.IsUpper(r) {
			// Start a new word at lower→Upper, and at the last capital of
			// an acronym run followed by a lowercase (WALAppends → wal_appends).
			if i > 0 && (unicode.IsLower(rs[i-1]) || unicode.IsDigit(rs[i-1]) ||
				(i+1 < len(rs) && unicode.IsLower(rs[i+1]))) {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Counter fields become `spinflow_<snake_name>` gauges (gauge, not
// counter, because Reset and gauge-like fields such as SolutionBytes make
// monotonicity a per-field property the type system doesn't track);
// histograms become `spinflow_<name>_seconds` with power-of-two-ns bucket
// bounds converted to seconds.
func (r *Registry) WritePrometheus(w io.Writer) {
	names, hists, counters, cols, ring := r.snapshot()

	if counters != nil {
		for _, f := range counters.Snapshot().Fields() {
			n := "spinflow_" + snakeCase(f.Name)
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, f.Value)
		}
	}

	for i, name := range names {
		s := hists[i].Snapshot()
		n := "spinflow_" + name + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum int64
		for b, c := range s.Buckets {
			cum += c
			if c == 0 && b != numBuckets-1 {
				continue // sparse: emit only hit buckets plus +Inf
			}
			if b == numBuckets-1 {
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
			} else {
				fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, float64(bucketUpper(b))/1e9, cum)
			}
		}
		fmt.Fprintf(w, "%s_sum %g\n", n, float64(s.Sum)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", n, s.Count)
	}

	emit := func(name, labels string, value float64) {
		n := "spinflow_" + name
		if labels != "" {
			fmt.Fprintf(w, "%s{%s} %g\n", n, labels, value)
		} else {
			fmt.Fprintf(w, "%s %g\n", n, value)
		}
	}
	for _, c := range cols {
		c(emit)
	}

	fmt.Fprintf(w, "# TYPE spinflow_trace_spans_retained gauge\nspinflow_trace_spans_retained %d\n", ring.Len())
	fmt.Fprintf(w, "# TYPE spinflow_trace_spans_dropped gauge\nspinflow_trace_spans_dropped %d\n", ring.Dropped())
}

// histVar is the JSON form of one histogram in /debug/vars.
type histVar struct {
	Count  int64 `json:"count"`
	SumNs  int64 `json:"sum_ns"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
}

// Vars returns the /debug/vars JSON document: counters by field name,
// histogram summaries, collector gauges, and span-ring occupancy.
func (r *Registry) Vars() map[string]any {
	names, hists, counters, cols, ring := r.snapshot()
	doc := make(map[string]any, 4)

	cm := make(map[string]int64)
	if counters != nil {
		for _, f := range counters.Snapshot().Fields() {
			cm[f.Name] = f.Value
		}
	}
	doc["counters"] = cm

	hm := make(map[string]histVar, len(names))
	for i, name := range names {
		s := hists[i].Snapshot()
		hm[name] = histVar{
			Count:  s.Count,
			SumNs:  s.Sum,
			MeanNs: int64(s.Mean()),
			P50Ns:  int64(s.P50()),
			P90Ns:  int64(s.P90()),
			P99Ns:  int64(s.P99()),
		}
	}
	doc["histograms"] = hm

	gm := make(map[string]float64)
	for _, c := range cols {
		c(func(name, labels string, value float64) {
			key := name
			if labels != "" {
				key += "{" + labels + "}"
			}
			gm[key] = value
		})
	}
	doc["gauges"] = gm

	doc["trace"] = map[string]int64{
		"spans_retained": int64(ring.Len()),
		"spans_dropped":  ring.Dropped(),
	}
	return doc
}

// Handler mounts the export plane:
//
//	GET /metrics        Prometheus text
//	GET /debug/vars     counters + histogram summaries as JSON
//	GET /debug/pprof/*  net/http/pprof (profile, heap, trace, ...)
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Vars())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve exposes the Handler on addr in a background goroutine. It returns
// the bound address (useful with ":0") and a closer that stops the
// listener.
func (r *Registry) Serve(addr string) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go NewHTTPServer(r.Handler()).Serve(ln)
	return ln.Addr().String(), ln, nil
}

// The limits of every HTTP server this module runs (the telemetry plane
// and the live serving API): a client has HTTPReadHeaderTimeout to send
// its request header, which may not exceed HTTPMaxHeaderBytes, and an idle
// keep-alive connection closes after HTTPIdleTimeout. Bodies have no read
// deadline: a view's create request carries its whole edge list.
const (
	HTTPReadHeaderTimeout = 5 * time.Second
	HTTPIdleTimeout       = 2 * time.Minute
	HTTPMaxHeaderBytes    = 64 << 10
)

// NewHTTPServer builds a server for h under those limits.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: HTTPReadHeaderTimeout,
		IdleTimeout:       HTTPIdleTimeout,
		MaxHeaderBytes:    HTTPMaxHeaderBytes,
	}
}
