package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

var update = flag.Bool("update", false, "rewrite golden files")

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestPhaseString(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		if s := p.String(); s == "" || s[0] == 'p' && s != "plan" {
			t.Fatalf("phase %d has suspicious name %q", p, s)
		}
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Fatalf("out-of-range phase name = %q", got)
	}
}

func TestRingRetainsNewestAndCountsDropped(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.RecordSpan(Span{Step: int32(i)})
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	spans := r.Spans()
	for i, s := range spans {
		if want := int32(12 + i); s.Step != want {
			t.Fatalf("span %d has step %d, want %d (oldest-first order)", i, s.Step, want)
		}
	}
}

func TestRingSpansFor(t *testing.T) {
	r := NewRing(16)
	a, b := TraceID(1), TraceID(2)
	for i := 0; i < 6; i++ {
		tr := a
		if i%2 == 1 {
			tr = b
		}
		r.RecordSpan(Span{Trace: tr, Step: int32(i)})
	}
	got := r.SpansFor(b)
	if len(got) != 3 {
		t.Fatalf("SpansFor(b) returned %d spans, want 3", len(got))
	}
	for _, s := range got {
		if s.Trace != b {
			t.Fatalf("span with trace %d leaked into SpansFor(b)", s.Trace)
		}
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every observation must land in a bucket whose bounds contain it.
	for _, ns := range []int64{1, 7, 63, 1 << 20, 1 << 40, 1 << 62} {
		i := bucketIndex(ns)
		if ns > bucketUpper(i) {
			t.Errorf("ns %d above bucket %d upper %d", ns, i, bucketUpper(i))
		}
		if i > 0 && ns <= bucketUpper(i-1) {
			t.Errorf("ns %d should be in bucket %d or lower", ns, i-1)
		}
	}
	if got := bucketIndex(1 << 62); got != numBuckets-1 {
		t.Errorf("huge duration bucket = %d, want overflow %d", got, numBuckets-1)
	}
}

// TestHistogramQuantiles checks p50/p90/p99 against a known synthetic
// distribution: uniform over (0, 1ms]. With power-of-two buckets and
// within-bucket interpolation the relative error is bounded by the bucket
// granularity at the quantile — well under 2× — and p50 of a uniform must
// land near 500µs, not at a bucket edge artifact.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(time.Millisecond))) + 1)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	check := func(q float64, want time.Duration) {
		got := s.Quantile(q)
		lo, hi := want/2, want*2
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v] of exact %v", q, got, lo, hi, want)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.90, 900*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	if mean := s.Mean(); mean < 350*time.Microsecond || mean > 650*time.Microsecond {
		t.Errorf("mean = %v, want ~500µs", mean)
	}
}

// TestHistogramQuantileExactBuckets pins the interpolation math with a
// hand-checkable distribution: 100 observations in (512, 1024]ns.
func TestHistogramQuantileExactBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(600 * time.Nanosecond)
	}
	s := h.Snapshot()
	// All mass in bucket (512,1024]: q interpolates linearly across it.
	if got := s.Quantile(0.5); got != time.Duration(512+256) {
		t.Errorf("p50 = %v, want 768ns (midpoint of the only hit bucket)", got)
	}
	if got := s.Quantile(1.0); got != 1024*time.Nanosecond {
		t.Errorf("p100 = %v, want bucket upper bound 1024ns", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}

// TestHistogramConcurrent hammers one histogram from parallel recorders
// while scraping Prometheus text — the -race proof for the lock-free
// recording path.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("superstep_duration")
	const workers, perWorker = 8, 5000

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
			if buf.Len() == 0 {
				t.Error("empty scrape")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
				reg.Trace().RecordSpan(Span{Step: int32(i), Host: int32(w)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"RecordsShipped":       "records_shipped",
		"UDFInvocations":       "udf_invocations",
		"WALAppends":           "wal_appends",
		"WALBytes":             "wal_bytes",
		"PlanNanos":            "plan_nanos",
		"SolutionBytes":        "solution_bytes",
		"RecoveryReplays":      "recovery_replays",
		"RecordsShippedRemote": "records_shipped_remote",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusGolden pins the text exposition format byte-for-byte.
// Regenerate with: go test ./internal/obs -run Golden -update
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counters().RecordsShipped.Store(1234)
	reg.Counters().WALAppends.Store(7)
	h := reg.Histogram("superstep_duration")
	h.Observe(600 * time.Nanosecond)  // bucket (512,1024]
	h.Observe(600 * time.Nanosecond)  // same bucket
	h.Observe(3 * time.Microsecond)   // bucket (2048,4096]
	h.Observe(200 * time.Millisecond) // bucket (134217728,268435456]
	reg.Histogram("live_query_duration").Observe(50 * time.Microsecond)
	reg.RegisterCollector(func(emit func(name, labels string, value float64)) {
		emit("views", "", 2)
		emit("view_workset", `view="pr"`, 31)
	})
	reg.Trace().RecordSpan(Span{Trace: 1, Phase: PhaseSuperstep, Dur: 100})

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)

	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus text drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestVars(t *testing.T) {
	reg := NewRegistry()
	reg.Counters().SolutionUpdates.Store(5)
	reg.Histogram("plan_duration").Observe(time.Millisecond)
	doc := reg.Vars()
	if doc["counters"].(map[string]int64)["SolutionUpdates"] != 5 {
		t.Error("counter missing from vars")
	}
	hv := doc["histograms"].(map[string]histVar)["plan_duration"]
	if hv.Count != 1 || hv.SumNs != int64(time.Millisecond) {
		t.Errorf("histogram vars = %+v", hv)
	}
}

func TestBuildTimeline(t *testing.T) {
	const tr = TraceID(9)
	spans := []Span{
		// step 0 on two hosts: host 0 superstep 100ns, host 1 superstep 140ns
		{Trace: tr, Host: 0, Part: -1, Step: 0, Phase: PhaseSuperstep, Dur: 100},
		{Trace: tr, Host: 1, Part: -1, Step: 0, Phase: PhaseSuperstep, Dur: 140},
		// operators: host 0 part 0 does 30+20, host 1 part 1 does 90
		{Trace: tr, Host: 0, Part: 0, Step: 0, Phase: PhaseOperator, Dur: 30},
		{Trace: tr, Host: 0, Part: 0, Step: 0, Phase: PhaseOperator, Dur: 20},
		{Trace: tr, Host: 1, Part: 1, Step: 0, Phase: PhaseOperator, Dur: 90},
		{Trace: tr, Host: 0, Part: -1, Step: 0, Phase: PhaseShip, Dur: 10},
		{Trace: tr, Host: 1, Part: -1, Step: 0, Phase: PhaseShip, Dur: 15},
		{Trace: tr, Host: 0, Part: -1, Step: 0, Phase: PhaseMerge, Dur: 8},
		// step 1 single host
		{Trace: tr, Host: 0, Part: -1, Step: 1, Phase: PhaseSuperstep, Dur: 50},
		{Trace: tr, Host: 0, Part: 0, Step: 1, Phase: PhaseOperator, Dur: 45},
		// phase with no step is skipped
		{Trace: tr, Host: 0, Part: -1, Step: -1, Phase: PhasePlan, Dur: 999},
	}
	rows := BuildTimeline(spans)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	r0 := rows[0]
	if r0.Step != 0 || r0.Hosts != 2 || r0.Operators != 3 {
		t.Fatalf("row0 meta = %+v", r0)
	}
	if r0.Total != 140 {
		t.Errorf("row0 total = %v, want 140 (slowest host)", r0.Total)
	}
	if r0.Compute != 90 {
		t.Errorf("row0 compute = %v, want 90 (critical host/part)", r0.Compute)
	}
	if r0.Barrier != 50 {
		t.Errorf("row0 barrier = %v, want 50 (total - compute)", r0.Barrier)
	}
	if r0.Ship != 25 || r0.Merge != 8 {
		t.Errorf("row0 ship/merge = %v/%v, want 25/8", r0.Ship, r0.Merge)
	}
	if rows[1].Step != 1 || rows[1].Total != 50 || rows[1].Compute != 45 {
		t.Errorf("row1 = %+v", rows[1])
	}

	var buf bytes.Buffer
	WriteTimeline(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty timeline table")
	}

	doc := NewTimelineDoc("test", tr, spans)
	if doc.Hosts != 2 || len(doc.Rows) != 2 || len(doc.Spans) != len(spans) {
		t.Errorf("doc = hosts %d rows %d spans %d", doc.Hosts, len(doc.Rows), len(doc.Spans))
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("superstep_duration").Observe(time.Millisecond)
	addr, closer, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	get := func(path string) string {
		resp, err := httpGet("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if body := get("/metrics"); !bytes.Contains([]byte(body), []byte("spinflow_superstep_duration_seconds_count 1")) {
		t.Errorf("/metrics missing histogram:\n%s", body)
	}
	if body := get("/debug/vars"); !bytes.Contains([]byte(body), []byte("superstep_duration")) {
		t.Errorf("/debug/vars missing histogram:\n%s", body)
	}
	if body := get("/debug/pprof/"); !bytes.Contains([]byte(body), []byte("profile")) {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", body)
	}
}

func httpGet(url string) (string, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.String(), nil
}
