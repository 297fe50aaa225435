package runtime_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// TestTaskProfileLabels profiles fused CoGroup CC at Parallelism 2 and
// requires CPU samples labelled {layer=runtime, op=<node>, lane} for every
// node of the plan — the folded toNeighbors producer included — and for
// the engine's fold of the seed workset (op W0+best-combine), and samples
// of the driver's ∪̇ merge labelled {layer=solution, op=merge}. It repeats
// the fixpoint until every task has been sampled, so short tasks (the
// sinks) are caught too; supersteps run on both lanes, and samples of
// both lanes must show up. Planning samples ({layer=optimizer,
// op=cost|greedy}) are accepted but not required: planning is about 0.1 %
// of a fixpoint. So are a live view's control rounds ({layer=live,
// op=<round>}), a worker's share of them ({layer=live, op=<verb>}), the
// API handlers of `spinflow serve` ({layer=http, route=<pattern>}) and
// the TCP transport's read loops ({layer=transport, op=read}), which a
// library fixpoint does not run.
func TestTaskProfileLabels(t *testing.T) {
	g := graphgen.RMAT("labels", 11, 60_000, 0.57, 0.19, 0.19, 9).WithDiameterTail(20, 0)
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	cfg := iterative.Config{Parallelism: 2}
	phys, err := iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, n := range phys.Nodes {
		want[n.Name()] = true
	}
	if !want["toNeighbors+best-combine"] {
		t.Fatalf("the plan did not fold the workset:\n%s", phys.Explain())
	}
	want["W0+best-combine"] = true

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	seen := map[string]int{}
	lanes := map[string]int{}
	merges := 0
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		// Profile in slices, so the samples so far can be checked.
		stop := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(stop) {
			if _, err := iterative.RunIncremental(spec, s0, w0, cfg); err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] == "runtime" && l["op"] != "" {
				seen[l["op"]]++
				if lane := l["lane"]; lane != "serial" && lane != "parallel" {
					t.Fatalf("op %q sampled with lane %q, want serial or parallel: %v", l["op"], lane, l)
				}
				lanes[l["lane"]]++
			} else if l["layer"] == "solution" && l["op"] == "merge" {
				if len(l) != 2 {
					t.Fatalf("merge sampled with labels %v, want only layer and op", l)
				}
				merges++
			} else if !isPlanLabel(l) && !isRoundLabel(l) && !isDriveLabel(l) && !isVerbLabel(l) && !isHTTPLabel(l) && !isTransportLabel(l) && (l["op"] != "" || l["layer"] != "") {
				t.Fatalf("labels %v are neither a runtime task's, the solution merge's, a planner call's, a control round's, a worker verb's, an API handler's nor a transport read loop's", l)
			}
		}
		missing := 0
		for op := range want {
			if seen[op] == 0 {
				missing++
			}
		}
		for op := range seen {
			if !want[op] {
				t.Fatalf("samples labelled with op %q, which is neither a node of the plan nor the seed fold", op)
			}
		}
		if missing == 0 && len(lanes) == 2 && merges > 0 {
			t.Logf("samples per op after %d rounds: %v; per lane: %v; merge: %d", round+1, seen, lanes, merges)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds some ops, lanes or the merge have no samples: %v, lanes %v, merge %d; want all of %v on both lanes",
				round+1, seen, lanes, merges, want)
		}
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Fatal(err)
		}
	}
}

// isPlanLabel reports whether l is the label set of a planner call,
// {layer=optimizer, op=cost|greedy}.
func isPlanLabel(l map[string]string) bool {
	return len(l) == 2 && l["layer"] == "optimizer" && (l["op"] == "cost" || l["op"] == "greedy")
}

// isRoundLabel reports whether l is the label set of a live view's control
// round, {layer=live, op=<round>}.
func isRoundLabel(l map[string]string) bool {
	switch l["op"] {
	case "mesh", "load", "plan epoch", "apply", "gather", "seed", "replan":
		return len(l) == 2 && l["layer"] == "live"
	}
	return false
}

// isDriveLabel reports whether l is the label set of a live view's
// coordinator driving its supersteps, {layer=live, op=step}.
func isDriveLabel(l map[string]string) bool {
	return len(l) == 2 && l["layer"] == "live" && l["op"] == "step"
}

// isVerbLabel reports whether l is the label set of a coordinator verb a
// worker serves, {layer=live, op=<verb kind>}.
func isVerbLabel(l map[string]string) bool {
	switch l["op"] {
	case "view_open", "view_start", "view_load", "view_apply", "view_replan", "view_gather", "view_seed", "view_step",
		"view_epoch", "view_query", "view_collect", "view_stats":
		return len(l) == 2 && l["layer"] == "live"
	}
	return false
}

// isHTTPLabel reports whether l is the label set of an API handler of
// `spinflow serve`, {layer=http, route=<pattern>}.
func isHTTPLabel(l map[string]string) bool {
	return len(l) == 2 && l["layer"] == "http" && l["route"] != ""
}

// isTransportLabel reports whether l is the label set of the TCP
// transport's inbound goroutines, {layer=transport, op=read}, or of its
// send side on a producing task's goroutine, {layer=transport, op=send}.
func isTransportLabel(l map[string]string) bool {
	return len(l) == 2 && l["layer"] == "transport" && (l["op"] == "read" || l["op"] == "send")
}

// TestPlannerProfileLabels profiles a loop of planning calls — CoGroup
// CC's plan under the cost-based and the greedy planner — and requires
// CPU samples labelled {layer=optimizer, op=cost} and {layer=optimizer,
// op=greedy}; every optimizer-layer sample must carry exactly that label
// set.
func TestPlannerProfileLabels(t *testing.T) {
	g := graphgen.Uniform("plan-labels", 200, 800, 5)
	spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	cost := iterative.Config{Parallelism: 2, Planner: optimizer.PlannerCost}
	greedy := iterative.Config{Parallelism: 2, Planner: optimizer.PlannerGreedy}

	var prof bytes.Buffer
	seen := map[string]int{}
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
			for _, cfg := range []iterative.Config{cost, greedy} {
				if _, err := iterative.PlanIncremental(spec, cfg, 0); err != nil {
					pprof.StopCPUProfile()
					t.Fatal(err)
				}
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "optimizer" {
				continue
			}
			if !isPlanLabel(l) {
				t.Fatalf("optimizer sample labelled %v, want exactly {layer=optimizer, op=cost|greedy}", l)
			}
			seen[l["op"]]++
		}
		if seen["cost"] > 0 && seen["greedy"] > 0 {
			t.Logf("optimizer samples after %d rounds: %v", round+1, seen)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds optimizer samples per planner are %v, want both cost and greedy", round+1, seen)
		}
		prof.Reset()
	}
}

// TestWALProfileLabels loops Mutate on a durable CC view whose batch
// never fills, so every call is one log append and fsync and no flush
// runs, and requires CPU samples labelled {layer=wal, op=append}; every
// wal-layer sample must carry exactly {layer=wal, op=append|snapshot}.
func TestWALProfileLabels(t *testing.T) {
	v, err := live.NewView("wal-labels", live.CC(), nil, live.ViewConfig{
		Config:  iterative.Config{Parallelism: 1},
		Durable: true, DataDir: t.TempDir(), BatchSize: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var prof bytes.Buffer
	appends := 0
	deadline := time.Now().Add(30 * time.Second)
	for round, i := 0, int64(0); ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); i++ {
			if err := v.Mutate(live.InsertEdge(i%64, (i+1)%64)); err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "wal" {
				continue
			}
			if len(l) != 2 || (l["op"] != "append" && l["op"] != "snapshot") {
				t.Fatalf("wal sample labelled %v, want exactly {layer=wal, op=append|snapshot}", l)
			}
			if l["op"] == "append" {
				appends++
			}
		}
		if appends > 0 {
			t.Logf("wal append samples after %d rounds: %d", round+1, appends)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=wal, op=append}", round+1)
		}
		prof.Reset()
	}
}

// TestLiveRoundProfileLabels loops small flushes on an in-process CC view
// — an edge of a chain deleted, then put back — and requires CPU samples
// labelled {layer=live, op=<round>}, the coordinator's share of its
// control rounds, and {layer=live, op=step}, its driving of the
// supersteps; every live-layer sample must carry exactly one of those
// label sets.
func TestLiveRoundProfileLabels(t *testing.T) {
	var chain []live.Mutation
	for i := int64(0); i < 64; i++ {
		chain = append(chain, live.InsertEdge(i, i+1))
	}
	v, err := live.NewView("round-labels", live.CC(), chain, live.ViewConfig{Config: iterative.Config{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var prof bytes.Buffer
	rounds, drives := map[string]int{}, 0
	deadline := time.Now().Add(30 * time.Second)
	for round, i := 0, int64(0); ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); i++ {
			k := i % 64
			for _, mu := range []live.Mutation{live.DeleteEdge(k, k+1), live.InsertEdge(k, k+1)} {
				if err := v.Mutate(mu); err == nil {
					err = v.Flush()
				}
				if err != nil {
					pprof.StopCPUProfile()
					t.Fatal(err)
				}
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "live" {
				continue
			}
			if isDriveLabel(l) {
				drives++
				continue
			}
			if !isRoundLabel(l) {
				t.Fatalf("live sample labelled %v, want exactly {layer=live, op=<round>|step}", l)
			}
			rounds[l["op"]]++
		}
		if len(rounds) > 0 && drives > 0 {
			t.Logf("control round samples after %d rounds: %v, step samples: %d", round+1, rounds, drives)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds %d samples are labelled {layer=live, op=step} and these {layer=live, op=<round>}: %v", round+1, drives, rounds)
		}
		prof.Reset()
	}
}

// TestWorkerVerbProfileLabels loops the flushes of TestLiveRoundProfileLabels
// on a view sharded over one loopback worker, which serves in this
// process, and requires CPU samples labelled {layer=live, op=<verb kind>},
// the workers' share of the control rounds; every live-layer sample must
// carry exactly a round's or a verb's label set. Then it loops opens of a
// larger sharded view: every sample of the worker's view_open past its
// planning (on the stack of workerSession.open, not of PlanIncremental)
// must carry {layer=live, op=view_open}, and some must be inside
// newShardCore, which planning used to leave unlabelled.
func TestWorkerVerbProfileLabels(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: live.NewWorkerHost(nil)})
	var chain []live.Mutation
	for i := int64(0); i < 64; i++ {
		chain = append(chain, live.InsertEdge(i, i+1))
	}
	v, err := live.NewView("verb-labels", live.CC(), chain, live.ViewConfig{
		Config:  iterative.Config{Parallelism: 2},
		Workers: []string{ln.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var prof bytes.Buffer
	verbs := map[string]int{}
	deadline := time.Now().Add(30 * time.Second)
	for round, i := 0, int64(0); ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); i++ {
			k := i % 64
			for _, mu := range []live.Mutation{live.DeleteEdge(k, k+1), live.InsertEdge(k, k+1)} {
				if err := v.Mutate(mu); err == nil {
					err = v.Flush()
				}
				if err != nil {
					pprof.StopCPUProfile()
					t.Fatal(err)
				}
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "live" {
				continue
			}
			if isVerbLabel(l) {
				verbs[l["op"]]++
			} else if !isRoundLabel(l) && !isDriveLabel(l) {
				t.Fatalf("live sample labelled %v, want exactly {layer=live, op=<round>|step|<verb kind>}", l)
			}
		}
		if len(verbs) > 0 {
			t.Logf("worker verb samples after %d rounds: %v", round+1, verbs)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=live, op=<verb kind>}", round+1)
		}
		prof.Reset()
	}

	var tree []live.Mutation // a binary tree: a cold run of a few supersteps
	for i := int64(1); i < 20_000; i++ {
		tree = append(tree, live.InsertEdge(i, i/2))
	}
	cfg := live.ViewConfig{Config: iterative.Config{Parallelism: 2}, Workers: []string{ln.Addr().String()}}
	afterPlanning := 0
	for round := 0; ; round++ {
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
			v, err := live.NewView("open-labels", live.CC(), tree, cfg)
			if err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
			v.Close()
		}
		pprof.StopCPUProfile()
		samples, err := profileSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if !s.onStack("live.(*workerSession).open") || s.onStack("iterative.PlanIncremental") {
				continue
			}
			if len(s.labels) != 2 || s.labels["layer"] != "live" || s.labels["op"] != "view_open" {
				t.Fatalf("a worker's view_open sample past planning is labelled %v, want {layer=live, op=view_open}: %v", s.labels, s.funcs)
			}
			if s.onStack("live.newShardCore") {
				afterPlanning++
			}
		}
		if afterPlanning > 0 {
			t.Logf("view_open samples in newShardCore past planning after %d rounds: %d", round+1, afterPlanning)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample of a worker's view_open is inside newShardCore past planning", round+1)
		}
	}
}

// TestTransportProfileLabels loops sharded flushes on a view over one
// loopback worker, which serves in this process, and requires CPU samples
// labelled {layer=transport, op=read} — the TCP transport's read loops,
// decoding and routing inbound batches on both hosts — and {layer=transport,
// op=send}: producing tasks encoding and writing batches for the other
// host. Every transport-layer sample must carry exactly one of those label
// sets.
func TestTransportProfileLabels(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: live.NewWorkerHost(nil)})
	// Cutting a chain in the middle relabels half of it: every flush runs
	// about n/2 supersteps, each shipping records between the hosts.
	const n = 256
	var chain []live.Mutation
	for i := int64(0); i < n; i++ {
		chain = append(chain, live.InsertEdge(i, i+1))
	}
	v, err := live.NewView("transport-labels", live.CC(), chain, live.ViewConfig{
		Config:  iterative.Config{Parallelism: 2},
		Workers: []string{ln.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var prof bytes.Buffer
	samples := map[string]int{} // transport samples by op
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
			for _, mu := range []live.Mutation{live.DeleteEdge(n/2, n/2+1), live.InsertEdge(n/2, n/2+1)} {
				if err := v.Mutate(mu); err == nil {
					err = v.Flush()
				}
				if err != nil {
					pprof.StopCPUProfile()
					t.Fatal(err)
				}
			}
		}
		pprof.StopCPUProfile()
		labelled, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range labelled {
			if l["layer"] != "transport" {
				continue
			}
			if !isTransportLabel(l) {
				t.Fatalf("transport sample labelled %v, want exactly {layer=transport, op=read|send}", l)
			}
			samples[l["op"]]++
		}
		if samples["read"] > 0 && samples["send"] > 0 {
			t.Logf("transport samples after %d rounds: %v", round+1, samples)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds transport samples by op are %v, want both read and send", round+1, samples)
		}
		prof.Reset()
	}
}

// TestHTTPProfileLabels loops queries against the HTTP API of a scheduler
// serving one CC view and requires CPU samples labelled {layer=http,
// route=GET /views/{name}/query}; every http-layer sample must carry
// exactly an API handler's label set.
func TestHTTPProfileLabels(t *testing.T) {
	s := live.NewScheduler(live.SchedulerConfig{DefaultView: live.ViewConfig{Config: iterative.Config{Parallelism: 1}}})
	defer s.Close()
	var chain []live.Mutation
	for i := int64(0); i < 64; i++ {
		chain = append(chain, live.InsertEdge(i, i+1))
	}
	if _, err := s.Create("http-labels", live.CC(), chain, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const route = "GET /views/{name}/query"
	var prof bytes.Buffer
	routes := map[string]int{}
	deadline := time.Now().Add(30 * time.Second)
	for round, i := 0, 0; ; round++ {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); i++ {
			resp, err := http.Get(fmt.Sprintf("%s/views/http-labels/query?key=%d", srv.URL, i%64))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
		pprof.StopCPUProfile()
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "http" {
				continue
			}
			if !isHTTPLabel(l) {
				t.Fatalf("http sample labelled %v, want exactly {layer=http, route=<pattern>}", l)
			}
			routes[l["route"]]++
		}
		if routes[route] > 0 {
			t.Logf("API handler samples after %d rounds: %v", round+1, routes)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=http, route=%s}: %v", round+1, route, routes)
		}
		prof.Reset()
	}
}

// labelledSamples returns each sample's string labels (profileSamples).
func labelledSamples(gz []byte) ([]map[string]string, error) {
	samples, err := profileSamples(gz)
	out := make([]map[string]string, len(samples))
	for i, s := range samples {
		out[i] = s.labels
	}
	return out, err
}

// profSample is one CPU sample: its string labels and the functions on its
// stack.
type profSample struct {
	labels map[string]string
	funcs  []string
}

// onStack reports whether a function whose name ends in fn is on s's stack.
func (s profSample) onStack(fn string) bool {
	for _, f := range s.funcs {
		if strings.HasSuffix(f, fn) {
			return true
		}
	}
	return false
}

// profileSamples decodes a gzipped pprof profile far enough to return each
// sample's string labels — Profile.sample (2) → Sample.label (3) →
// Label.key (1) / Label.str (2), indices into Profile.string_table (6) —
// and its stack: Sample.location_id (1) → Profile.location (4) →
// Location.line (4) → Line.function_id (1) → Profile.function (5) →
// Function.name (2).
func profileSamples(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	uvarint := func(v []byte) uint64 {
		x, _ := binary.Uvarint(v)
		return x
	}
	type rawSample struct {
		labels [][2]uint64 // (key, str) string indices
		locs   []uint64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids
		fnNames = map[uint64]uint64{}   // function id → string index
	)
	err = protoFields(raw, func(field int, v []byte) error {
		switch field {
		case 6:
			strs = append(strs, string(v))
		case 2:
			var s rawSample
			err := protoFields(v, func(field int, v []byte) error {
				switch field {
				case 1: // one varint, or packed ones
					for len(v) > 0 {
						x, n := binary.Uvarint(v)
						if n <= 0 {
							return fmt.Errorf("bad location id")
						}
						s.locs, v = append(s.locs, x), v[n:]
					}
				case 3:
					var kv [2]uint64
					err := protoFields(v, func(field int, v []byte) error {
						if field == 1 || field == 2 {
							kv[field-1] = uvarint(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(v, func(field int, v []byte) error {
				switch field {
				case 1:
					id = uvarint(v)
				case 4:
					return protoFields(v, func(field int, v []byte) error {
						if field == 1 {
							fns = append(fns, uvarint(v))
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := protoFields(v, func(field int, v []byte) error {
				switch field {
				case 1:
					id = uvarint(v)
				case 2:
					name = uvarint(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index out of range")
		}
		return strs[i], nil
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		out[i].labels = map[string]string{}
		for _, kv := range s.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			if out[i].labels[k], err = str(kv[1]); err != nil {
				return nil, err
			}
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name, err := str(fnNames[fn])
				if err != nil {
					return nil, err
				}
				out[i].funcs = append(out[i].funcs, name)
			}
		}
	}
	return out, nil
}

// protoFields walks one protobuf message, calling f with each field's
// number and payload: the varint's own bytes for wire type 0, the bytes
// for wire type 2; fixed-width fields are skipped.
func protoFields(b []byte, f func(field int, v []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad tag")
		}
		b = b[n:]
		var v []byte
		switch tag & 7 {
		case 0:
			_, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			v, b = b[:n], b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			v, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", tag&7)
		}
		if err := f(int(tag>>3), v); err != nil {
			return err
		}
	}
	return nil
}

// requireLabelled fails t unless the goroutine running the test function
// fn carries exactly the profiler labels want (as the goroutine profile
// prints them) after the step named after.
func requireLabelled(t *testing.T, fn, want, after string) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, fn) {
			if !strings.Contains(g, "# labels: "+want) {
				t.Fatalf("after %s the goroutine is not labelled %s:\n%s", after, want, g)
			}
			return
		}
	}
	t.Fatalf("no goroutine runs the test:\n%s", buf.String())
}

// TestSerialLaneRestoresCallerLabels: a superstep on the serial lane runs
// its tasks on the caller's goroutine under their own labels, and so does
// the driver's ∪̇ merge; the caller's labels — here a live probe's — are
// back on the goroutine when Session.Run, a Fixpoint's SeedWorkset and
// StepOnce and a RunDriven handed them in its hooks return.
func TestSerialLaneRestoresCallerLabels(t *testing.T) {
	defer runtime.ForceLane(func() bool { return true })()
	labels := pprof.WithLabels(context.Background(), pprof.Labels("layer", "live", "op", "probe"))
	pprof.SetGoroutineLabels(labels)
	defer pprof.SetGoroutineLabels(context.Background())
	stillLabelled := func(after string) {
		t.Helper()
		requireLabelled(t, "TestSerialLaneRestoresCallerLabels", `{"layer":"live", "op":"probe"}`, after)
	}

	p := dataflow.NewPlan()
	sink := p.SinkNode("out", p.MapNode("id", p.SourceOf("one", []record.Record{{A: 1}}),
		func(r record.Record, out dataflow.Emitter) { out.Emit(r) }))
	phys, err := optimizer.Optimize(p, optimizer.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := runtime.NewExecutor(runtime.Config{})
	defer e.Close()
	sess := e.OpenSession(phys)
	defer sess.Close()
	res, err := sess.Run(labels)
	if err != nil || len(res.Records(sink.ID)) != 1 {
		t.Fatalf("one-record superstep: %v, %v", res.Records(sink.ID), err)
	}
	stillLabelled("a serial superstep")

	spec, _, w0 := algorithms.CCIncrementalSpec(graphgen.ChainedCommunities("labels", 2, 4, 4, 1), algorithms.CCCoGroup)
	cfg := iterative.Config{Parallelism: 2}
	phys, err = iterative.PlanIncremental(spec, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := iterative.OpenFixpointOn(spec, nil, cfg, phys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	pprof.SetGoroutineLabels(labels) // planning labels the goroutine its own way
	fx.SeedWorkset(labels, w0)
	stillLabelled("seeding the workset")
	if _, err := fx.StepOnce(labels); err != nil {
		t.Fatal(err)
	}
	stillLabelled("a Fixpoint step and its merge")
	if _, err := fx.RunDriven(w0, iterative.DriveHooks{Labels: labels}); err != nil {
		t.Fatal(err)
	}
	stillLabelled("a driven run to the fixpoint")
}

// TestLiveRestoresCallerLabels: a durable CC view's Mutate labels its WAL
// append {layer=wal, op=append}, and a flush runs control rounds,
// supersteps and (at the 32nd flush) a snapshot under labels of their own,
// as does a checkpoint; a caller that hands its labels in — an HTTP
// handler's, here a probe's — has them back after each MutateContext,
// FlushContext and CheckpointContext.
func TestLiveRestoresCallerLabels(t *testing.T) {
	v, err := live.NewView("caller-labels", live.CC(), nil, live.ViewConfig{
		Config:  iterative.Config{Parallelism: 2},
		Durable: true, DataDir: t.TempDir(), BatchSize: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	labels := pprof.WithLabels(context.Background(), pprof.Labels("layer", "http", "route", "probe"))
	pprof.SetGoroutineLabels(labels)
	defer pprof.SetGoroutineLabels(context.Background())
	const want = `{"layer":"http", "route":"probe"}`
	for i := range int64(33) {
		mut := live.InsertEdge(i, i+1)
		if i%4 == 3 {
			mut = live.DeleteEdge(i-2, i-1)
		}
		if err := v.MutateContext(labels, mut); err != nil {
			t.Fatal(err)
		}
		requireLabelled(t, "TestLiveRestoresCallerLabels", want, fmt.Sprintf("Mutate %d", i))
		if err := v.FlushContext(labels); err != nil {
			t.Fatal(err)
		}
		requireLabelled(t, "TestLiveRestoresCallerLabels", want, fmt.Sprintf("Flush %d", i))
	}
	if st := v.Stats(); st.Flushes != 33 {
		t.Fatalf("%d flushes, want 33", st.Flushes)
	}
	if err := v.CheckpointContext(labels); err != nil {
		t.Fatal(err)
	}
	requireLabelled(t, "TestLiveRestoresCallerLabels", want, "Checkpoint")
}
