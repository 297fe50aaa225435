package live

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/obs"
)

// hammer drives the registered view "g" from several goroutines for d:
// Get plus Mutate and Query, and every HTTP route of the view. Every
// answer must be typed: a direct call nil or ErrViewDown, an HTTP route 2xx
// or 503 with Retry-After (stats 200 always). It returns what broke the
// rules, and the longest a Get took.
func hammer(s *Scheduler, base string, d time.Duration) (bad []string, slowest time.Duration) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	note := func(format string, args ...any) {
		mu.Lock()
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	stop := time.Now().Add(d)
	for g := range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := int64(0); time.Now().Before(stop); i++ {
				start := time.Now()
				v, ok := s.Get("g")
				took := time.Since(start)
				mu.Lock()
				slowest = max(slowest, took)
				mu.Unlock()
				if !ok {
					note("Get found no view")
					return
				}
				if err := v.Mutate(InsertEdge(100+i, 101+i)); err != nil && !errors.Is(err, ErrViewDown) {
					note("Mutate: untyped error %v", err)
				}
				if _, ok := v.Query(int64(g)); !ok && v.downErr() == nil {
					note("Query found nothing on a view that is up")
				}
			}
		}()
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			routes := []struct{ method, path, body string }{
				{"POST", "/views/g/mutations", `[{"op":"insert-edge","src":7,"dst":8}]`},
				{"GET", "/views/g/query?key=1", ""},
				{"POST", "/views/g/flush", ""},
				{"POST", "/views/g/checkpoint", ""},
				{"GET", "/views/g/stats", ""},
			}
			for i := 0; time.Now().Before(stop); i++ {
				rt := routes[i%len(routes)]
				req, _ := http.NewRequest(rt.method, base+rt.path, strings.NewReader(rt.body))
				resp, err := client.Do(req)
				if err != nil {
					note("%s %s: %v", rt.method, rt.path, err)
					return
				}
				resp.Body.Close()
				switch {
				case strings.HasSuffix(rt.path, "/stats"):
					if resp.StatusCode != http.StatusOK {
						note("stats answered %s", resp.Status)
					}
				case resp.StatusCode == http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						note("%s %s answered 503 without Retry-After", rt.method, rt.path)
					}
				case resp.StatusCode >= 300:
					note("%s %s answered %s", rt.method, rt.path, resp.Status)
				}
			}
		}()
	}
	wg.Wait()
	return bad, slowest
}

// restartUnderPersistentFault breaks a served view for good with breakIt,
// hammers it for about a second, and checks that its reopens stayed within
// the backoff bound (at most about 8 in a second: at once, then 50, 100,
// 200, 400 ms apart), that no Get waited out more than one quick reopen
// (slowGet), that every answer was typed, and that Close leaves no
// goroutine and no spill file behind. It returns the view's stats as the
// hammering left them.
func restartUnderPersistentFault(t *testing.T, cfg SchedulerConfig, breakIt func()) ViewStats {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	baseline := goruntime.NumGoroutine()
	s := NewScheduler(cfg)
	if _, err := s.Create("g", CC(), ringEdges(64), nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	breakIt()
	start := time.Now()
	bad, slowest := hammer(s, srv.URL, time.Second)
	st := s.Stats().PerView["g"]
	elapsed := time.Since(start)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d reopens in %v, slowest Get %v, state %s, last error %q", st.Restarts,
		elapsed.Round(time.Millisecond), slowest.Round(time.Millisecond), st.State, st.LastError)
	if st.Restarts < 1 || st.Restarts > 8 {
		t.Errorf("%d reopens in %v, want 1..8", st.Restarts, elapsed)
	}
	if slowest > slowGet {
		t.Errorf("a Get took %v, want at most %v", slowest, slowGet)
	}
	if st.State == viewStates[2] {
		t.Errorf("a transient fault failed the view: %s", st.LastError)
	}
	if err := s.Close(); err != nil && !errors.Is(err, ErrViewDown) {
		t.Errorf("Close: %v", err)
	}
	srv.Close()
	waitForGoroutines(t, baseline, "a view restarting under a persistent fault")
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d files left in the temp dir", len(left))
	}
	return st
}

// TestRestartPersistentIOFault: file calls fail once the view is up. When
// every call fails — a dead disk — each reopen fails in turn. When only
// writes fail, a reopen, which only reads, opens the view again and the
// next Mutate takes it down again: the backoff must hold across both.
func TestRestartPersistentIOFault(t *testing.T) {
	const dataDir = "/data"
	for _, f := range []ioFault{{name: "every call", err: syscall.EIO}, {name: "writes", kind: "write", err: syscall.ENOSPC}} {
		t.Run(f.name, func(t *testing.T) {
			mem := newMemFS(dataDir)
			cfg := SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{
				Config: iterative.Config{Parallelism: 2, SolutionMemoryBudget: 256}, fs: mem}}
			restartUnderPersistentFault(t, cfg, func() {
				mem.mu.Lock()
				mem.broken = f
				mem.mu.Unlock()
			})
		})
	}
}

// slowGet bounds a Get that reopens a view under a persistent fault: an
// open that fails at its first file call or its first dial. Waiting out
// distrib.DialWorker's startup retries alone takes 1.55 s.
const slowGet = 500 * time.Millisecond

// acceptLog is a listener that keeps every connection it accepted.
type acceptLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *acceptLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// TestRestartRefusedDial: the worker of a sharded durable view, dialled
// the default way, closes its listener and every connection it accepted,
// so every later dial is refused. Each reopen dials once: no Get waits out
// a startup dial's retries. The failed reopen's error names the view once.
func TestRestartRefusedDial(t *testing.T) {
	const dataDir = "/data"
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &acceptLog{Listener: inner}
	t.Cleanup(func() { ln.Close() })
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: NewWorkerHost(nil)})
	cfg := SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{
		Config: iterative.Config{Parallelism: 2, SolutionMemoryBudget: 256}, Workers: []string{ln.Addr().String()},
		fs: newMemFS(dataDir)}}
	st := restartUnderPersistentFault(t, cfg, func() {
		ln.Close()
		ln.mu.Lock()
		for _, c := range ln.conns {
			c.Close()
		}
		ln.mu.Unlock()
	})
	if n := strings.Count(st.LastError, `recovering view "g"`); n != 1 {
		t.Errorf("LastError names the view %d times, want once: %s", n, st.LastError)
	}
}

// TestReopenAfterUnreadableFile: a read the file system fails is no
// verdict on the bytes behind it. The newest snapshot failing to open after
// a rotation leaves the log uncovered only for now, and a read failing
// inside the log is no torn tail: either way the view is restarting, no
// acknowledged frame is cut, and the first Get once the file reads again
// brings the view back whole. A newest snapshot whose bytes are damaged
// does leave the log uncovered for good: that view is failed.
func TestReopenAfterUnreadableFile(t *testing.T) {
	const dataDir, dir = "/data", "/data/g"
	mem := newMemFS(dataDir)
	cfg := SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{
		Config: iterative.Config{Parallelism: 1}, fs: mem}}
	s := NewScheduler(cfg)
	v, err := s.Create("g", CC(), ringEdges(8), nil)
	for _, step := range []func() error{
		func() error { return v.Mutate(InsertEdge(20, 21)) }, v.Flush, v.Checkpoint,
		func() error { return v.Mutate(InsertEdge(21, 22)) }, v.Flush, v.Checkpoint,
		func() error { return v.Mutate(InsertEdge(22, 23)) }, // past the rotation
	} {
		if err == nil {
			err = step()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	vf, err := readViewDir(mem, dir)
	if err != nil || len(vf.snaps) < 2 {
		t.Fatalf("snapshots %v (%v), want two", vf.snaps, err)
	}
	newest := dir + "/" + snapshotName(vf.snaps[0])
	for _, c := range []struct {
		name, path, state string
		at                int
	}{
		{"newest snapshot", newest, "restarting", 0},
		{"log", dir + "/" + walFileName, "restarting", walHeaderSize + 1},
		{"damaged newest snapshot", newest, "failed", -1},
	} {
		if c.at < 0 {
			_, _, n := mem.lookup(newest)
			n.data[len(n.data)/2] ^= 1
		} else {
			mem.unreadable.path, mem.unreadable.at = c.path, c.at
		}
		s := NewScheduler(cfg)
		n, err := s.Recover()
		if st := s.Stats().PerView["g"]; n != 0 || err == nil || st.State != c.state {
			t.Fatalf("%s: Recover = %d, %v; state %s, want %s", c.name, n, err, st.State, c.state)
		}
		mem.unreadable.path = ""
		if v, _ := s.Get("g"); c.state == "failed" {
			if v.downErr() == nil || v.Stats().Restarts != 0 {
				t.Fatalf("%s: a failed view was reopened: %+v", c.name, v.Stats())
			}
		} else if v.downErr() != nil {
			t.Fatalf("%s: not back: %v", c.name, v.downErr())
		} else {
			mustComp(t, v, 23, 20)
		}
		s.Close()
	}
}

// TestReopenRacesDropAndClose: Gets that reopen a down view race a Drop,
// HTTP requests and, at the end, the scheduler's Close. Nothing panics,
// every answer is typed, and the dropped view's directory is gone: a reopen
// never runs beside the Drop that deletes it.
func TestReopenRacesDropAndClose(t *testing.T) {
	const dataDir = "/data"
	mem := newMemFS(dataDir)
	s := NewScheduler(SchedulerConfig{DataDir: dataDir, DefaultView: ViewConfig{
		Config: iterative.Config{Parallelism: 1}, fs: mem}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for round := range 3 {
		v, err := s.Create("g", CC(), ringEdges(16), nil)
		if err != nil {
			t.Fatal(err)
		}
		mem.mu.Lock()
		mem.broken = ioFault{err: syscall.EIO}
		mem.mu.Unlock()
		if err := v.Mutate(InsertEdge(1, 2)); !errors.Is(err, ErrViewDown) {
			t.Fatalf("round %d: Mutate on a broken disk: %v", round, err)
		}
		mem.mu.Lock()
		mem.broken = ioFault{} // the fault passes: the next Get reopens the view
		mem.mu.Unlock()
		done := make(chan []string)
		go func() {
			bad, _ := hammer(s, srv.URL, 100*time.Millisecond)
			done <- bad
		}()
		time.Sleep(20 * time.Millisecond)
		last := round == 2
		if last {
			err = s.Close()
		} else {
			err = s.Drop("g")
		}
		if err != nil && !errors.Is(err, ErrViewDown) {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, b := range <-done {
			// A request racing the Drop or Close may find the view gone,
			// or closed, which comes back no more: 503 without Retry-After.
			if !strings.Contains(b, "Get found no view") && !strings.Contains(b, "404") &&
				!strings.Contains(b, "without Retry-After") {
				t.Errorf("round %d: %s", round, b)
			}
		}
		_, _, dir := mem.lookup(dataDir + "/g")
		if !last && dir != nil {
			t.Fatalf("round %d: the dropped view's directory survived", round)
		}
		if last && dir == nil {
			t.Fatalf("Close deleted the view's directory")
		}
	}
}

// TestRecoverRegistersEveryView: Recover registers every committed view
// and returns the ones serving beside the failures. A view whose open
// fails for a transient cause (here its log's torn tail cannot be
// truncated) is restarting, and the first Get after the fault passed
// brings it back; one whose meta.json names an algorithm this binary has
// no maintainer for is failed for good. Both are listed and report their
// state; the failed one answers 503 without Retry-After, the restarting
// one with it, and Drop deletes the failed one's directory.
func TestRecoverRegistersEveryView(t *testing.T) {
	const dataDir = "/data"
	mem := newMemFS(dataDir)
	cfg := SchedulerConfig{DataDir: dataDir, Obs: obs.NewRegistry(), DefaultView: ViewConfig{
		Config: iterative.Config{Parallelism: 1}, fs: mem}}
	s := NewScheduler(cfg)
	for _, name := range []string{"bad", "flaky", "ok"} {
		v, err := s.Create(name, CC(), ringEdges(8), nil)
		if err == nil {
			err = v.Mutate(InsertEdge(20, 21))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	meta, _ := mem.Create(dataDir + "/bad/" + metaFileName)
	meta.Write([]byte(`{"algorithm":"pagerank"}`))
	wal, _ := mem.OpenAppend(dataDir + "/flaky/" + walFileName)
	wal.Write([]byte("torn"))
	mem.broken = ioFault{kind: "truncate", err: syscall.EIO}

	s = NewScheduler(cfg)
	defer s.Close()
	n, err := s.Recover()
	if n != 1 || err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), `"flaky"`) {
		t.Fatalf("Recover = %d, %v; want 1 serving and both failures", n, err)
	}
	states := map[string]string{}
	for name, vs := range s.Stats().PerView {
		states[name] = vs.State
	}
	if want := map[string]string{"bad": "failed", "flaky": "restarting", "ok": "serving"}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if names := decodeJSON[[]string](t, mustGet(t, srv.URL+"/views")); len(names) != 3 {
		t.Fatalf("GET /views = %v, want all three", names)
	}
	if st := decodeJSON[ViewStats](t, mustGet(t, srv.URL+"/views/bad/stats")); st.State != "failed" {
		t.Fatalf("stats of the failed view: %+v", st)
	}
	for name, retry := range map[string]bool{"bad": false, "flaky": true} {
		resp := mustGet(t, srv.URL+"/views/"+name+"/query?key=1")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || (resp.Header.Get("Retry-After") != "") != retry {
			t.Errorf("query %s: %s, Retry-After %q", name, resp.Status, resp.Header.Get("Retry-After"))
		}
	}
	var text strings.Builder
	cfg.Obs.WritePrometheus(&text)
	for _, want := range []string{`spinflow_view_state{view="bad"} 2`, `spinflow_view_state{view="flaky"} 1`, `spinflow_view_restarts{view="flaky"} 1`} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	mem.mu.Lock()
	mem.broken = ioFault{} // the fault passed; the reopen backs off 50 ms first
	mem.mu.Unlock()
	time.Sleep(restartBase)
	if v, _ := s.Get("flaky"); v.downErr() != nil {
		t.Fatalf("flaky is not back: %v", v.downErr())
	} else {
		mustComp(t, v, 21, 20)
	}
	if v, _ := s.Get("bad"); v.downErr() == nil || v.Stats().Restarts != 0 {
		t.Fatalf("a failed view was reopened: %+v", v.Stats())
	}
	if err := s.Drop("bad"); err != nil {
		t.Fatal(err)
	}
	if _, _, dir := mem.lookup(dataDir + "/bad"); dir != nil {
		t.Fatal("Drop left the failed view's directory")
	}
}
