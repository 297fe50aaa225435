package runtime_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/optimizer"
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
			} else if !isPlanLabel(l) && !isRoundLabel(l) && !isVerbLabel(l) && !isHTTPLabel(l) && !isTransportLabel(l) && (l["op"] != "" || l["layer"] != "") {
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

// isVerbLabel reports whether l is the label set of a coordinator verb a
// worker serves, {layer=live, op=<verb kind>}.
func isVerbLabel(l map[string]string) bool {
	switch l["op"] {
	case "view_load", "view_apply", "view_replan", "view_gather", "view_seed", "view_step",
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
// transport's inbound goroutines, {layer=transport, op=read}.
func isTransportLabel(l map[string]string) bool {
	return len(l) == 2 && l["layer"] == "transport" && l["op"] == "read"
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
	v, err := live.OpenView("wal-labels", live.CC(), nil, live.ViewConfig{
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
// control rounds; every live-layer sample must carry exactly one round's
// label set.
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
	rounds := map[string]int{}
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
			if !isRoundLabel(l) {
				t.Fatalf("live sample labelled %v, want exactly {layer=live, op=<round>}", l)
			}
			rounds[l["op"]]++
		}
		if len(rounds) > 0 {
			t.Logf("control round samples after %d rounds: %v", round+1, rounds)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=live, op=<round>}", round+1)
		}
		prof.Reset()
	}
}

// TestWorkerVerbProfileLabels loops the flushes of TestLiveRoundProfileLabels
// on a view sharded over one loopback worker, which serves in this
// process, and requires CPU samples labelled {layer=live, op=<verb kind>},
// the workers' share of the control rounds; every live-layer sample must
// carry exactly a round's or a verb's label set.
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
			} else if !isRoundLabel(l) {
				t.Fatalf("live sample labelled %v, want exactly {layer=live, op=<round>|<verb kind>}", l)
			}
		}
		if len(verbs) > 0 {
			t.Logf("worker verb samples after %d rounds: %v", round+1, verbs)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=live, op=<verb kind>}", round+1)
		}
		prof.Reset()
	}
}

// TestTransportProfileLabels loops sharded flushes on a view over one
// loopback worker, which serves in this process, and requires CPU samples
// labelled {layer=transport, op=read}: the TCP transport's read loops,
// decoding and routing inbound batches on both hosts. Every
// transport-layer sample must carry exactly that label set.
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
	reads := 0
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
		samples, err := labelledSamples(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range samples {
			if l["layer"] != "transport" {
				continue
			}
			if !isTransportLabel(l) {
				t.Fatalf("transport sample labelled %v, want exactly {layer=transport, op=read}", l)
			}
			reads++
		}
		if reads > 0 {
			t.Logf("transport samples after %d rounds: %d", round+1, reads)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds no sample is labelled {layer=transport, op=read}", round+1)
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

// labelledSamples decodes a gzipped pprof profile far enough to return
// each sample's string labels: Profile.sample (2) → Sample.label (3) →
// Label.key (1) / Label.str (2), indices into Profile.string_table (6).
func labelledSamples(gz []byte) ([]map[string]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	var samples [][][2]int64 // per sample: (key, str) string indices
	err = protoFields(raw, func(field int, v []byte) error {
		switch field {
		case 6:
			strs = append(strs, string(v))
		case 2:
			var labels [][2]int64
			err := protoFields(v, func(field int, v []byte) error {
				if field != 3 {
					return nil
				}
				var kv [2]int64
				err := protoFields(v, func(field int, v []byte) error {
					if field == 1 || field == 2 {
						x, _ := binary.Uvarint(v)
						kv[field-1] = int64(x)
					}
					return nil
				})
				labels = append(labels, kv)
				return err
			})
			samples = append(samples, labels)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]map[string]string, len(samples))
	for i, labels := range samples {
		out[i] = map[string]string{}
		for _, kv := range labels {
			if kv[0] >= int64(len(strs)) || kv[1] >= int64(len(strs)) {
				return nil, fmt.Errorf("label string index out of range")
			}
			out[i][strs[kv[0]]] = strs[kv[1]]
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
