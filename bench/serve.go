package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// serve-durable-mixed: live.Serve with a data directory, one Connected
// Components view created over HTTP, then an open-loop schedule at a fixed
// rate over two keep-alive connections: nine GET query in ten on uniformly
// random keys, one POST of 64 inserts against a view whose batch_size is
// 64 — so a 2xx on a mutation means logged, applied and visible, not
// queued. Every request is timed from when it was due. The run ends with
// Kill + Scheduler.Recover, and the recovered snapshot must equal a
// union-find oracle over every acknowledged batch.

const (
	serveView        = "g"
	serveConns       = 2
	serveBatch       = 64
	serveRate        = 600 // req/s the gated metrics are taken at
	queryLimitMS     = 10  // p99 limit a rate must meet to count as OK
	mutateLimitMS    = 100 // p95 limit, likewise
	backlogLimitMS   = 50  // a schedule ending this far behind is a growing backlog
	genLateInvalidMS = 1   // generator lateness (p99) beyond which latencies are not trusted
)

// serveLadder are the rates the traced run steps through for max_ok_rate.
var serveLadder = []int{300, 600, 1200}

// server is one running live.Serve with its scheduler.
type server struct {
	sched *live.Scheduler
	base  string
	stop  chan struct{}
	done  chan error
}

// startServer runs live.Serve over dataDir and creates the workload's view
// through the API (the cold fixpoint runs inside that request).
func startServer(dataDir string, par int, reg *obs.Registry, create []byte) (*server, error) {
	sched := live.NewScheduler(live.SchedulerConfig{
		DataDir:         dataDir,
		DefaultView:     live.ViewConfig{Config: iterative.Config{Parallelism: par}},
		MaxRequestBytes: 64 << 20, // the create request carries the whole edge list
		Obs:             reg,
	})
	s := &server{sched: sched, stop: make(chan struct{}), done: make(chan error, 1)}
	ready := make(chan net.Addr, 1)
	go func() { s.done <- live.Serve("127.0.0.1:0", sched, s.stop, ready) }()
	select {
	case addr := <-ready:
		s.base = "http://" + addr.String()
	case err := <-s.done:
		return nil, err
	}
	if err := createView(s.base, create); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

// shutdown stops the server and waits until it has closed every view.
func (s *server) shutdown() error {
	close(s.stop)
	return <-s.done
}

// request is one scheduled HTTP request, built before the window opens so
// the generator does nothing but send.
type request struct {
	mutate bool
	url    string
	body   []byte
	edges  []edge // the batch, for the oracle
}

// serveInput is the generated graph plus a request mix.
type serveInput struct {
	edges    []edge
	create   []byte
	vertices int64
	r        *rng
}

func genServe(e *env) (*serveInput, error) {
	n, m := int64(45_000), 3
	if e.tiny {
		n = 1_500
	}
	in := &serveInput{vertices: n, r: newRNG(e.seed, 5)}
	in.edges = prefAttach(in.r, n, m)
	req := live.CreateRequest{Name: serveView, Algorithm: "cc", BatchSize: serveBatch,
		Edges: make([]live.EdgeJSON, len(in.edges))}
	for i, ed := range in.edges {
		req.Edges[i] = live.EdgeJSON{Src: ed.Src, Dst: ed.Dst}
	}
	var err error
	in.create, err = json.Marshal(req)
	return in, err
}

// requests draws the next n requests of the mix: every tenth is a batch of
// inserts from a random existing vertex, half of them to a vertex that
// does not exist yet (so the solution grows and labels must propagate),
// the rest query a random existing vertex.
func (in *serveInput) requests(base string, n int) []request {
	out := make([]request, n)
	for i := range out {
		if i%10 != 9 {
			out[i].url = fmt.Sprintf("%s/views/%s/query?key=%d", base, serveView, in.r.intn(in.vertices))
			continue
		}
		wire := make([]live.MutationJSON, serveBatch)
		batch := make([]edge, serveBatch)
		for j := range wire {
			src, dst := in.r.intn(in.vertices), in.r.intn(in.vertices)
			if j%2 == 1 {
				dst = in.vertices
				in.vertices++
			}
			if src == dst {
				dst = (dst + 1) % in.vertices
			}
			wire[j] = live.MutationJSON{Op: "insert-edge", Src: src, Dst: dst}
			batch[j] = edge{Src: src, Dst: dst}
		}
		body, _ := json.Marshal(wire) // plain structs cannot fail to marshal
		out[i] = request{mutate: true, url: base + "/views/" + serveView + "/mutations", body: body, edges: batch}
	}
	return out
}

// do sends one request and drains the response; ok means a 2xx status.
func do(c *http.Client, rq *request) (ok bool, err error) {
	var resp *http.Response
	if rq.mutate {
		resp, err = c.Post(rq.url, "application/json", bytes.NewReader(rq.body))
	} else {
		resp, err = c.Get(rq.url)
	}
	if err != nil {
		return false, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode/100 == 2, err
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	queryMS, mutateMS []float64 // latency from due time
	lateMS            []float64 // how late the generator itself sent
	backlogMS         float64   // how far behind schedule the last sends were
	failed            int
	acked             []edge // edges of acknowledged batches, for the oracle
}

// openLoop sends reqs at rate req/s over serveConns keep-alive
// connections. Request i is due at start + i/rate whatever happened to the
// ones before it; connection c takes requests c, c+conns, … in order, so a
// slow response delays what is queued behind it on that connection, and
// that wait counts: latency runs from the due time. The generator's own
// lateness is the part of a late send not owed to the connection being
// busy.
func openLoop(reqs []request, rate int, tr *tracer) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			free := start
			for i := c; i < len(reqs); i += serveConns {
				rq := &reqs[i]
				due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
				sleepUntil(due)
				sent := time.Now()
				ok, err := do(client, rq)
				done := time.Now()
				// ready is when the request could have gone out: when it was
				// due, or when its connection was done with the one before.
				// Waiting for the connection is the server's doing; sending
				// later than ready is the generator's.
				ready := due
				if free.After(ready) {
					ready = free
				}
				free = done
				root := tr.root("request", due)
				tr.closed(root, "connection-wait", layerHTTP, due, ready.Sub(due))
				tr.closed(root, "round-trip", layerHTTP, sent, done.Sub(sent))
				root.endAt(done)
				ms := done.Sub(due).Seconds() * 1e3
				mu.Lock()
				res.lateMS = append(res.lateMS, sent.Sub(ready).Seconds()*1e3)
				switch {
				case err != nil || !ok:
					res.failed++
				case rq.mutate:
					res.mutateMS = append(res.mutateMS, ms)
					res.acked = append(res.acked, rq.edges...)
				default:
					res.queryMS = append(res.queryMS, ms)
				}
				if i >= len(reqs)-serveConns {
					res.backlogMS = max(res.backlogMS, sent.Sub(due).Seconds()*1e3)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. A Go timer
// on an idle box fires up to a millisecond late (the runtime parks in
// epoll_wait, whose timeout is whole milliseconds), which would put that
// millisecond into every latency; nanosleep wakes within the kernel's
// ~50 µs timer slack and, unlike a spin, leaves the processors to the
// server.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) just loops
	}
}

// meetsLimits reports whether a phase kept the latency limits with no
// backlog growing behind the schedule.
func (r *loadResult) meetsLimits() bool {
	return r.failed == 0 && percentile(r.queryMS, 0.99) <= queryLimitMS &&
		percentile(r.mutateMS, 0.95) <= mutateLimitMS && r.backlogMS <= backlogLimitMS
}

// createView posts the create request.
func createView(base string, body []byte) error {
	resp, err := http.Post(base+"/views", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the error text
		return fmt.Errorf("create view: %s: %s", resp.Status, msg)
	}
	return nil
}

func runServe(e *env) (*outcome, error) {
	out := newOutcome()

	// Set-up, repeated: generate, start the server, create the view. The
	// last server stays up for the measurement.
	var in *serveInput
	var srv *server
	var dataDir string
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.shutdown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = genServe(e); err != nil {
			return nil, err
		}
		dataDir = filepath.Join(e.dir, fmt.Sprintf("data%d", i))
		if srv, err = startServer(dataDir, e.par, nil, in.create); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.size("vertices", in.vertices)
	out.size("edges", int64(len(in.edges)))

	// acked collects every edge the measured server acknowledged.
	acked := append([]edge(nil), in.edges...)
	phase := func(s *server, rate int, d time.Duration, tr *tracer) *loadResult {
		runtime.GC() // every phase starts from a collected heap
		res := openLoop(in.requests(s.base, int(float64(rate)*d.Seconds())), rate, tr)
		out.attempted += len(res.queryMS) + len(res.mutateMS) + res.failed
		out.failed += res.failed
		if s == srv {
			acked = append(acked, res.acked...)
		}
		if late := percentile(res.lateMS, 0.99); late > genLateInvalidMS {
			out.notes = append(out.notes, fmt.Sprintf("serving metrics invalid at %d req/s: generator ran %.2f ms late at p99", rate, late))
		}
		return res
	}

	if !e.traced {
		res := phase(srv, serveRate, e.window(1), nil)
		out.set("op_p50_ms", median(res.queryMS), len(res.queryMS))
		out.set("heavy_p50_ms", median(res.mutateMS), len(res.mutateMS))
	} else if err := tracedServe(e, out, in, srv, phase); err != nil {
		srv.shutdown()
		return nil, err
	}

	// Crash and recover: every acknowledged batch must be in the recovered
	// view, and nothing else.
	v, ok := srv.sched.Get(serveView)
	if !ok {
		srv.shutdown()
		return nil, fmt.Errorf("view %q is gone", serveView)
	}
	v.Kill()
	if err := srv.shutdown(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	sched := live.NewScheduler(live.SchedulerConfig{DataDir: dataDir,
		DefaultView: live.ViewConfig{Config: iterative.Config{Parallelism: e.par}}})
	n, err := sched.Recover()
	out.set("recover_ms", time.Since(t0).Seconds()*1e3, 1)
	defer sched.Close()
	if err != nil || n != 1 {
		return nil, fmt.Errorf("recovered %d views: %v", n, err)
	}
	rv, _ := sched.Get(serveView)
	if err := verifyCC(rv.Snapshot(), unionFind(acked, nil)); err != nil {
		out.failed++
		return nil, fmt.Errorf("recovered view: %w", err)
	}
	return out, nil
}

// tracedServe is the traced run's measuring part: the traced ladder with
// a plain phase beside its gated rung, a phase against a server with
// Config.Obs on, and the HTTP, snapshot and WAL probes.
func tracedServe(e *env, out *outcome, in *serveInput, srv *server,
	phase func(*server, int, time.Duration, *tracer) *loadResult) error {
	// The gated rate gets a third of the window plain and a third traced,
	// back to back; the other rungs and the Obs phase a sixth each.
	heap := startHeapWatch()
	var plain, gated *loadResult
	maxOK := 0
	for _, rate := range serveLadder {
		d := e.window(6)
		if rate == serveRate {
			d = e.window(3)
			plain = phase(srv, rate, d, nil)
		}
		mark := e.tr.mark()
		res := phase(srv, rate, d, e.tr)
		if res.meetsLimits() {
			maxOK = max(maxOK, rate)
		}
		if rate == serveRate {
			gated = res
			out.budget = budgetOf(e.tr.since(mark))
		}
	}
	out.set("peak_heap_mb", heap.stop(), 0)
	out.set("max_ok_rate", float64(maxOK), len(serveLadder))
	out.set("op_p99_ms", percentile(gated.queryMS, 0.99), len(gated.queryMS))
	out.set("heavy_p95_ms", percentile(gated.mutateMS, 0.95), len(gated.mutateMS))
	out.set("gen_late_p99_ms", percentile(gated.lateMS, 0.99), len(gated.lateMS))
	out.set("trace_overhead_ratio", median(gated.queryMS)/median(plain.queryMS), len(gated.queryMS))

	// The same load against a server whose views report into an obs
	// registry.
	obsSrv, err := startServer(filepath.Join(e.dir, "data-obs"), e.par, obs.NewRegistry(), in.create)
	if err != nil {
		return err
	}
	withObs := phase(obsSrv, serveRate, e.window(6), nil)
	if err := obsSrv.shutdown(); err != nil {
		return err
	}
	out.set("obs_overhead_ratio", median(withObs.queryMS)/median(plain.queryMS), len(withObs.queryMS))

	v, ok := srv.sched.Get(serveView)
	if !ok {
		return fmt.Errorf("view %q is gone", serveView)
	}
	out.solution = v.Snapshot()

	// HTTP/JSON: the same point query through the API and directly.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var viaHTTP, direct []float64
	var bodyBytes, bodies int
	for _, rq := range in.requests(srv.base, 2000) {
		if rq.mutate {
			bodyBytes, bodies = bodyBytes+len(rq.body), bodies+1
			continue
		}
		t0 := time.Now()
		if ok, err := do(client, &rq); err != nil || !ok {
			return fmt.Errorf("probe query %s: ok=%v err=%v", rq.url, ok, err)
		}
		viaHTTP = append(viaHTTP, float64(time.Since(t0).Nanoseconds())/1e3)
		k := in.edges[in.r.intn(int64(len(in.edges)))].Src
		t0 = time.Now()
		v.Query(k)
		direct = append(direct, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out.set("http_overhead_us", median(viaHTTP)-median(direct), len(viaHTTP))
	out.set("json_bytes_per_mutation", float64(bodyBytes)/float64(bodies*serveBatch), bodies*serveBatch)

	var snapMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := v.Checkpoint(); err != nil {
			return err
		}
		snapMS = append(snapMS, time.Since(t0).Seconds()*1e3)
	}
	out.set("snapshot_ms", median(snapMS), len(snapMS))

	if err := probeWAL(e, out, in); err != nil {
		return err
	}
	gs := live.NewGraphState()
	for _, mu := range insertsOf(in.edges) {
		gs.Apply(mu)
	}
	spec, _, _ := live.CC().Spec(gs)
	return probeCommon(e, out, spec.Plan, incrementalOptions(&spec, e.par))
}

// probeWAL prices durability on two fresh views over the workload's graph
// that differ only in ViewConfig.Durable. A mutation below BatchSize is
// logged, fsynced and queued, so on the durable view its whole cost is the
// append; a full batch is also applied, which is what a mutation request
// waits for.
func probeWAL(e *env, out *outcome, in *serveInput) error {
	var m metrics.Counters
	cfg := live.ViewConfig{Config: iterative.Config{Parallelism: e.par, Metrics: &m}, BatchSize: serveBatch}
	mem, err := live.NewView("mem", live.CC(), insertsOf(in.edges), cfg)
	if err != nil {
		return err
	}
	defer mem.Close()
	cfg.Durable, cfg.DataDir = true, filepath.Join(e.dir, "wal-probe")
	dur, err := live.NewView("dur", live.CC(), insertsOf(in.edges), cfg)
	if err != nil {
		return err
	}
	defer dur.Close()

	n := int64(len(in.edges))
	draw := func(k int) []live.Mutation {
		batch := make([]edge, k)
		for i := range batch {
			batch[i] = edge{Src: in.edges[in.r.intn(n)].Src, Dst: in.edges[in.r.intn(n)].Dst}
		}
		return insertsOf(batch)
	}
	timeMutate := func(v *live.LiveView, muts []live.Mutation) (float64, error) {
		t0 := time.Now()
		err := v.Mutate(muts...)
		return time.Since(t0).Seconds() * 1e3, err
	}
	var appendMS, durMS, memMS []float64
	mutations, logged := 0, m.WALBytes.Load() // creation logged the initial graph
	for i := 0; i < serveBatch-1; i++ {       // stays below BatchSize: no flush
		ms, err := timeMutate(dur, draw(1))
		if err != nil {
			return err
		}
		appendMS, mutations = append(appendMS, ms), mutations+1
	}
	if err := dur.Flush(); err != nil {
		return err
	}
	const batches = 32
	for i := 0; i < batches; i++ {
		muts := draw(serveBatch)
		dms, err := timeMutate(dur, muts)
		if err != nil {
			return err
		}
		mms, err := timeMutate(mem, muts)
		if err != nil {
			return err
		}
		durMS, memMS, mutations = append(durMS, dms), append(memMS, mms), mutations+len(muts)
	}
	out.set("wal_append_p50_ms", median(appendMS), len(appendMS))
	out.set("wal_bytes_per_mutation", float64(m.WALBytes.Load()-logged)/float64(mutations), mutations)
	out.set("durable_mutate_ratio", median(durMS)/median(memMS), batches)
	return nil
}
