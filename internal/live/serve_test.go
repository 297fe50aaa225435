package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServeHTTPAPI drives the full view lifecycle over HTTP: create,
// mutate, flush, query, stats, drop.
func TestServeHTTPAPI(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Create a CC view over a triangle plus an isolated pair.
	resp := postJSON(t, srv.URL+"/views", CreateRequest{
		Name:      "g",
		Algorithm: "cc",
		Edges: []EdgeJSON{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 10, Dst: 11},
		},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	st := decodeJSON[ViewStats](t, resp)
	if st.SolutionRecords != 5 {
		t.Fatalf("created view has %d records, want 5", st.SolutionRecords)
	}

	// Query: vertex 11 belongs to component 10.
	q := decodeJSON[QueryResponse](t, mustGet(t, srv.URL+"/views/g/query?key=11"))
	if !q.Found || q.B != 10 {
		t.Fatalf("query(11) = %+v, want component 10", q)
	}

	// Stream a mutation joining the two components, flush, re-query.
	resp = postJSON(t, srv.URL+"/views/g/mutations", []MutationJSON{
		{Op: "insert-edge", Src: 2, Dst: 10},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mutations: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/views/g/flush", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %s", resp.Status)
	}
	st = decodeJSON[ViewStats](t, resp)
	// The one overlay edge stays unfolded and is re-examined once.
	if st.DeltasApplied != 1 || st.WarmRestarts != 1 || st.Folds != 0 || st.CandidateEdges != 1 {
		t.Fatalf("flush stats: %+v", st)
	}
	q = decodeJSON[QueryResponse](t, mustGet(t, srv.URL+"/views/g/query?key=11"))
	if !q.Found || q.B != 0 {
		t.Fatalf("post-merge query(11) = %+v, want component 0", q)
	}

	// Missing view and bad payloads.
	if resp := mustGet(t, srv.URL+"/views/nope/stats"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing view: %s", resp.Status)
	}
	if resp := postJSON(t, srv.URL+"/views/g/mutations", []MutationJSON{{Op: "explode"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad op: %s", resp.Status)
	}
	if resp := postJSON(t, srv.URL+"/views", CreateRequest{Name: "x", Algorithm: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algorithm: %s", resp.Status)
	}

	// Scheduler stats and drop.
	stats := decodeJSON[SchedulerStats](t, mustGet(t, srv.URL+"/stats"))
	if stats.Views != 1 {
		t.Errorf("scheduler stats: %+v", stats)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/views/g", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("delete: %s", dresp.Status)
	}
	if len(s.Names()) != 0 {
		t.Errorf("view survived DELETE: %d", len(s.Names()))
	}
}

// TestServeDownView: once a view is down (here its worker hung up in the
// middle of a flush), mutations, flush, checkpoint and query answer 503
// with the cause in the body.
func TestServeDownView(t *testing.T) {
	addr := startFakeWorker(t, dropAt(viewApply))
	s := NewScheduler(SchedulerConfig{
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{addr}}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/views", CreateRequest{Name: "g", Algorithm: "cc",
		Edges: []EdgeJSON{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/views/g/mutations", []MutationJSON{{Op: "delete-edge", Src: 0, Dst: 1}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mutations before the failure: %s", resp.Status)
	}
	resp.Body.Close()
	for _, call := range []struct {
		what string
		do   func() *http.Response
	}{
		{"flush", func() *http.Response { return postJSON(t, srv.URL+"/views/g/flush", nil) }},
		{"mutations", func() *http.Response {
			return postJSON(t, srv.URL+"/views/g/mutations", []MutationJSON{{Op: "insert-edge", Src: 5, Dst: 6}})
		}},
		{"checkpoint", func() *http.Response { return postJSON(t, srv.URL+"/views/g/checkpoint", nil) }},
		{"query", func() *http.Response { return mustGet(t, srv.URL+"/views/g/query?key=2") }},
	} {
		resp := call.do()
		body := decodeJSON[map[string]string](t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body["error"], "apply host 1") {
			t.Errorf("%s on a down view: %s %q, want 503 naming the failed apply", call.what, resp.Status, body["error"])
		}
	}
}

// TestServeBodyLimit posts an oversized mutation batch: the handler must
// answer 413 with the standard error JSON instead of decoding an
// unbounded body, and the view must stay usable.
func TestServeBodyLimit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		DefaultView:     ViewConfig{Config: iterative.Config{Parallelism: 2}},
		MaxRequestBytes: 4 << 10,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/views", CreateRequest{
		Name: "g", Algorithm: "cc", Edges: []EdgeJSON{{Src: 0, Dst: 1}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	resp.Body.Close()

	// ~50 bytes per mutation: 1000 of them blow the 4 KiB limit.
	big := make([]MutationJSON, 1000)
	for i := range big {
		big[i] = MutationJSON{Op: "insert-edge", Src: int64(i), Dst: int64(i + 1)}
	}
	resp = postJSON(t, srv.URL+"/views/g/mutations", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %s, want 413", resp.Status)
	}
	errBody := decodeJSON[map[string]string](t, resp)
	if errBody["error"] == "" {
		t.Errorf("413 response missing standard error JSON: %v", errBody)
	}

	// An oversized create body gets the same treatment.
	edges := make([]EdgeJSON, 1000)
	for i := range edges {
		edges[i] = EdgeJSON{Src: int64(i), Dst: int64(i + 1)}
	}
	resp = postJSON(t, srv.URL+"/views", CreateRequest{Name: "big", Algorithm: "cc", Edges: edges})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: %s, want 413", resp.Status)
	}
	resp.Body.Close()

	// The rejected batch left no partial state; a small one still works.
	resp = postJSON(t, srv.URL+"/views/g/mutations", []MutationJSON{{Op: "insert-edge", Src: 1, Dst: 2}})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("small batch after 413: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestServeAutoAlgorithm: "auto" and the empty name are no aliases of
// "cc" — on a plain and on a sharded server a create naming either is
// rejected with 400 and errUnknownForm, and creates no view — while a cc
// view, split by a deletion-driven full recompute, answers as before.
func TestServeAutoAlgorithm(t *testing.T) {
	for name, workers := range map[string][]string{"plain": nil, "sharded": startWorkers(t, 1)} {
		t.Run(name, func(t *testing.T) {
			s := NewScheduler(SchedulerConfig{DefaultView: ViewConfig{
				Config: iterative.Config{Parallelism: 2}, Workers: workers}})
			defer s.Close()
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()

			edges := []EdgeJSON{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
			for _, alg := range []string{"auto", ""} {
				resp := postJSON(t, srv.URL+"/views", CreateRequest{Name: "g", Algorithm: alg, Edges: edges})
				body := decodeJSON[map[string]string](t, resp)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], errUnknownForm.Error()) {
					t.Fatalf("create %q: %s %v, want 400 and %q", alg, resp.Status, body, errUnknownForm)
				}
			}
			if n := len(s.Names()); n != 0 {
				t.Fatalf("rejected creates left %d views", n)
			}

			resp := postJSON(t, srv.URL+"/views", CreateRequest{Name: "cc", Algorithm: "cc", Edges: edges})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create cc: %s", resp.Status)
			}
			resp.Body.Close()
			// Deleting a chain edge splits the component: the affected
			// region is the whole view, forcing the full-recompute path.
			resp = postJSON(t, srv.URL+"/views/cc/mutations", []MutationJSON{{Op: "delete-edge", Src: 1, Dst: 2}})
			resp.Body.Close()
			resp = postJSON(t, srv.URL+"/views/cc/flush", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("flush: %s", resp.Status)
			}
			if st := decodeJSON[ViewStats](t, resp); st.FullRecomputes != 1 {
				t.Fatalf("FullRecomputes = %d, want 1 (stats %+v)", st.FullRecomputes, st)
			}
			for key, want := range []int64{0, 0, 2, 2} {
				q := decodeJSON[QueryResponse](t, mustGet(t, fmt.Sprintf("%s/views/cc/query?key=%d", srv.URL, key)))
				if !q.Found || q.B != want {
					t.Fatalf("post-split query(%d) = %+v, want component %d", key, q, want)
				}
			}
		})
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// spillFiles lists the runtime's spill files in the temp dir.
func spillFiles(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "spinflow-spill-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestServeShutdownClean is the `spinflow serve` SIGINT contract, tested
// through the same stop-channel path the command wires a signal into:
// on shutdown nothing is flushed (an in-memory view's pending batch goes
// with it), the solution state (including spill files of budgeted views)
// is released, and the listener stops accepting connections.
func TestServeShutdownClean(t *testing.T) {
	// A private temp dir: the shared one holds whatever other packages'
	// tests are spilling right now, which is not this test's to assert on.
	t.Setenv("TMPDIR", t.TempDir())

	var m metrics.Counters
	s := NewScheduler(SchedulerConfig{
		DefaultView: ViewConfig{
			Config: iterative.Config{
				Parallelism: 4,
				Metrics:     &m,
				// A budget far below the view's footprint forces spilling.
				SolutionMemoryBudget: 8 * record.EncodedSize,
			},
			BatchSize: 1 << 20, // flushes must come from shutdown, not size
		}})

	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- Serve("127.0.0.1:0", s, stop, ready) }()
	addr := (<-ready).String()
	base := "http://" + addr

	resp := postJSON(t, base+"/views", CreateRequest{
		Name: "g", Algorithm: "cc",
		Edges: func() []EdgeJSON {
			var es []EdgeJSON
			for i := int64(0); i < 64; i++ {
				es = append(es, EdgeJSON{Src: i, Dst: i + 1})
			}
			return es
		}(),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	resp.Body.Close()
	if m.SolutionSpills.Load() == 0 || len(spillFiles(t)) == 0 {
		t.Fatal("budgeted view did not spill; shutdown test needs spill files")
	}

	// Queue a mutation but do not flush: shutdown must not apply it.
	resp = postJSON(t, base+"/views/g/mutations", []MutationJSON{
		{Op: "insert-edge", Src: 100, Dst: 101},
	})
	resp.Body.Close()
	applied := m.DeltasApplied.Load()

	close(stop) // the command sends SIGINT through exactly this channel
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}

	// Views were closed without a flush.
	if got := m.DeltasApplied.Load(); got != applied {
		t.Errorf("shutdown flushed the pending mutation: DeltasApplied %d -> %d", applied, got)
	}
	// Spill files are gone.
	for _, f := range spillFiles(t) {
		t.Errorf("spill file %s survived shutdown", f)
	}
	// The listener is down.
	if _, err := http.Get(base + "/stats"); err == nil {
		t.Error("server still serving after shutdown")
	}
	// And the scheduler is empty.
	if len(s.Names()) != 0 {
		t.Errorf("%d views survived shutdown", len(s.Names()))
	}
}

// TestServeDeadlines: the API server drops a client that dribbles its
// request header once obs.HTTPReadHeaderTimeout has passed, and refuses an
// oversized header, while a keep-alive client that idled for longer than
// the header deadline — but less than obs.HTTPIdleTimeout — is served
// again on the same connection.
func TestServeDeadlines(t *testing.T) {
	t.Parallel()
	s := NewScheduler(SchedulerConfig{})
	stop, ready, done := make(chan struct{}), make(chan net.Addr, 1), make(chan error, 1)
	go func() { done <- Serve("127.0.0.1:0", s, stop, ready) }()
	addr := (<-ready).String()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	keep := dial()
	kr := bufio.NewReader(keep)
	get := func(ctx string) {
		t.Helper()
		if _, err := io.WriteString(keep, "GET /stats HTTP/1.1\r\nHost: spinflow\r\n\r\n"); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		resp, err := http.ReadResponse(kr, nil)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", ctx, resp.Status)
		}
	}
	get("first request")

	slow := dial()
	start := time.Now()
	go func() {
		if _, err := io.WriteString(slow, "GET /stats HTTP/1.1\r\nX-Slow: "); err != nil {
			return
		}
		for {
			time.Sleep(100 * time.Millisecond)
			if _, err := slow.Write([]byte("a")); err != nil {
				return
			}
		}
	}()
	slow.SetReadDeadline(start.Add(obs.HTTPReadHeaderTimeout + 5*time.Second))
	if n, err := slow.Read(make([]byte, 1)); n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a dribbling header is still served %v later (read %d bytes, %v)", time.Since(start), n, err)
	}
	if took := time.Since(start); took < obs.HTTPReadHeaderTimeout-time.Second {
		t.Fatalf("a dribbling header was dropped after %v, before the %v deadline", took, obs.HTTPReadHeaderTimeout)
	}

	big := dial()
	fmt.Fprintf(big, "GET /stats HTTP/1.1\r\nHost: spinflow\r\nX-Big: %s\r\n\r\n", strings.Repeat("a", obs.HTTPMaxHeaderBytes+8<<10))
	if resp, err := http.ReadResponse(bufio.NewReader(big), nil); err != nil || resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("an oversized header got %v, %v", resp, err)
	}

	get("after idling past the header deadline")
}

// failingWriter is a ResponseWriter whose body writes fail — the shape of
// a client dropping the connection after the status line went out.
type failingWriter struct {
	hdr  http.Header
	code int
}

func (f *failingWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = make(http.Header)
	}
	return f.hdr
}
func (f *failingWriter) WriteHeader(code int)      { f.code = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// A response-encode failure must not vanish: it is logged to the process
// logger and counted in the scheduler stats (the bug was writeJSON
// discarding Encode's error).
func TestServeEncodeErrorSurfaced(t *testing.T) {
	var logBuf bytes.Buffer
	restore := log.Writer()
	log.SetOutput(&logBuf)
	s := NewScheduler(SchedulerConfig{})
	defer s.Close()

	fw := &failingWriter{}
	s.writeJSON(fw, http.StatusOK, map[string]string{"hello": "world"})
	log.SetOutput(restore) // before logBuf is read

	if fw.code != http.StatusOK {
		t.Errorf("status = %d, want 200 (header must still go out)", fw.code)
	}
	if got := s.Stats().EncodeErrors; got != 1 {
		t.Errorf("EncodeErrors = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "client gone") {
		t.Errorf("encode error not logged: %q", logBuf.String())
	}

	// The counter accumulates across requests — writeErr shares the path.
	s.writeErr(fw, http.StatusBadRequest, errors.New("boom"))
	if got := s.Stats().EncodeErrors; got != 2 {
		t.Errorf("EncodeErrors after second failure = %d, want 2", got)
	}

	// A healthy writer leaves the counter alone.
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]string{"ok": "yes"})
	if got := s.Stats().EncodeErrors; got != 2 {
		t.Errorf("EncodeErrors after healthy write = %d, want 2", got)
	}
}

// TestStalledWorkerDoesNotFreezeTelemetry: a sharded view whose worker
// holds its view_stats reply costs a scrape one control deadline, not
// forever. GET /metrics answers within the deadline (plus slack) with
// view_error 1 for the view, which the failed stats call took down, and
// GET /stats names that call in LastError.
func TestStalledWorkerDoesNotFreezeTelemetry(t *testing.T) {
	defer func(d time.Duration) { controlRoundTimeout = d }(controlRoundTimeout)
	controlRoundTimeout = 200 * time.Millisecond
	const slack = 2 * time.Second
	var stall atomic.Bool
	addr := startFakeWorker(t, func(reply *shardMsg) frameFault {
		if reply.Kind == viewStats && stall.Load() {
			return holdFrame
		}
		return passFrame
	})
	reg := obs.NewRegistry()
	s := NewScheduler(SchedulerConfig{Obs: reg,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{addr}}})
	defer s.Close()
	if _, err := s.Create("g", CC(), ringEdges(16), nil); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(s.Handler())
	defer api.Close()
	telemetry := httptest.NewServer(reg.Handler())
	defer telemetry.Close()

	stall.Store(true)
	start := time.Now()
	resp := mustGet(t, telemetry.URL+"/metrics")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > controlRoundTimeout+slack {
		t.Fatalf("/metrics took %v behind a stalled worker", d)
	}
	if !strings.Contains(string(body), `spinflow_view_error{view="g"} 1`) {
		t.Fatalf("/metrics does not report the view down:\n%s", body)
	}
	start = time.Now()
	st := decodeJSON[SchedulerStats](t, mustGet(t, api.URL+"/stats"))
	if d := time.Since(start); d > controlRoundTimeout+slack {
		t.Fatalf("/stats took %v", d)
	}
	if e := st.PerView["g"].LastError; !strings.Contains(e, "stats host 1") {
		t.Fatalf("LastError = %q, want the failed stats call", e)
	}
}
