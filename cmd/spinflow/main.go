// Command spinflow regenerates the paper's tables and figures, and runs
// the live serving mode.
//
// Usage:
//
//	spinflow [-scale f] [-par n] [-iters n] <experiment>...
//	spinflow serve [-addr :8080] [-par n] [-budget bytes] [-data-dir dir] [-workers n|addr,addr] [-telemetry-addr :9090]
//	spinflow worker [-listen 127.0.0.1:0] [-telemetry-addr :9091]
//	spinflow trace [-scale f] [-par n] <cc|live|distributed>
//
// `spinflow trace` runs one instrumented scenario, prints the
// per-superstep timeline (compute vs barrier vs ship vs merge), and
// writes the raw spans to TRACE_<scenario>.json. The -telemetry-addr
// flag on serve and worker exposes the process's obs.Registry —
// Prometheus text on /metrics, JSON on /debug/vars, and net/http/pprof
// under /debug/pprof/.
//
// Experiments: table1 table2 fig2 fig4 fig7 fig8 fig9 fig10 fig11 fig12
// distributed explain all
//
// `spinflow worker` hosts partition ranges for distributed sessions: a
// coordinator (e.g. `spinflow distributed`, or the distrib package's Run)
// connects, assigns a job spec and a host ID, and drives supersteps over
// the control connection while exchange batches flow over the binary
// framed data plane. `spinflow distributed` runs the 2-process
// differential and throughput scenario against workers spawned from this
// same binary.
//
// `spinflow serve` starts the long-running maintenance service: named
// live views over resident solution sets, maintained under streaming
// graph mutations through an HTTP JSON API (see internal/live). SIGINT or
// SIGTERM stops it the way a crash would, minus the lost process: the
// listener drains, every view closes without a flush or a snapshot, and
// spill files are removed. With -data-dir, views are durable: mutations
// are write-ahead logged before acknowledgment, snapshots stream
// periodically, and a restarted server recovers every view the one way
// it recovers from SIGKILL — the WAL tail past the newest snapshot replays
// through the maintenance path. Without it, pending batches go with the
// views. With -workers, every view is sharded across long-lived
// maintenance sessions on `spinflow worker` processes: pass running
// workers' control addresses, or an integer to spawn that many from this
// binary; queries and snapshots scatter-gather across the hosts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/algorithms"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/harness"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// worker hosts partition ranges for distributed sessions: it listens for
// coordinator control connections and serves jobs until killed. The bound
// control address is printed as the first stdout line so a parent process
// (harness, CI) can scrape it when listening on an ephemeral port.
func worker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "control listen address")
	telemetry := fs.String("telemetry-addr", "", "serve /metrics, /debug/vars and pprof on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The registry always exists: traced jobs record spans (and ship them
	// back to their coordinator) whether or not anyone scrapes this
	// process. -telemetry-addr just exposes it.
	reg := obs.NewRegistry()
	if *telemetry != "" {
		taddr, closer, err := reg.Serve(*telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "spinflow worker: telemetry on http://%s/metrics\n", taddr)
	}
	fmt.Println(ln.Addr().String())
	fmt.Fprintf(os.Stderr, "spinflow worker: listening on %s\n", ln.Addr())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		ln.Close()
	}()
	return distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{
		Log:   log.New(os.Stderr, "", log.LstdFlags),
		Views: live.NewWorkerHost(reg),
	})
}

// spawnWorkers launches n `spinflow worker` child processes from this
// binary and returns their control addresses plus a kill function. Each
// child prints its bound address as its first stdout line; that is what
// we scrape here.
func spawnWorkers(n int) ([]string, func(), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary for worker processes: %w", err)
	}
	var procs []*exec.Cmd
	kill := func() {
		for _, c := range procs {
			c.Process.Signal(syscall.SIGTERM)
		}
		for _, c := range procs {
			c.Wait()
		}
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "worker", "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			kill()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			kill()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			kill()
			return nil, nil, fmt.Errorf("worker %d exited before printing its control address", i)
		}
		addrs = append(addrs, strings.TrimSpace(sc.Text()))
	}
	return addrs, kill, nil
}

// distributed runs the 2-process differential + throughput scenario.
// With -workers it meshes with already-running worker processes;
// otherwise it spawns a worker from this binary.
func distributed(opts harness.Options) error {
	if len(opts.WorkerAddrs) == 0 {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own binary for worker processes: %w", err)
		}
		opts.WorkerBinary = self
	}
	_, err := harness.Distributed(opts)
	return err
}

// serve runs the live maintenance service until SIGINT/SIGTERM.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	par := fs.Int("par", 4, "default per-view parallelism")
	budget := fs.Int64("budget", 0, "total resident solution-memory budget in bytes (0 = unlimited)")
	viewBudget := fs.Int64("view-budget", 0, "per-view solution spill budget in bytes (0 = in-memory)")
	dataDir := fs.String("data-dir", "", "directory for durable view state (WAL + snapshots); views are recovered from it on startup")
	telemetry := fs.String("telemetry-addr", "", "serve /metrics, /debug/vars and pprof on this address (empty = off)")
	workers := fs.String("workers", "", "shard views across workers: comma-separated control addresses of running `spinflow worker` processes, or an integer N to spawn N from this binary")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var workerAddrs []string
	if *workers != "" {
		if n, err := strconv.Atoi(*workers); err == nil {
			if n < 1 {
				return fmt.Errorf("-workers %d: need at least one worker to shard", n)
			}
			addrs, kill, err := spawnWorkers(n)
			if err != nil {
				return err
			}
			defer kill()
			workerAddrs = addrs
			fmt.Fprintf(os.Stderr, "spinflow serve: spawned %d worker process(es): %s\n", n, strings.Join(addrs, ", "))
		} else {
			workerAddrs = strings.Split(*workers, ",")
		}
	}

	reg := obs.NewRegistry()
	if *telemetry != "" {
		taddr, closer, err := reg.Serve(*telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "spinflow serve: telemetry on http://%s/metrics\n", taddr)
	}
	sched := live.NewScheduler(live.SchedulerConfig{
		MemoryBudget: *budget,
		DataDir:      *dataDir,
		Obs:          reg,
		DefaultView: live.ViewConfig{
			Config:  iterative.Config{Parallelism: *par, SolutionMemoryBudget: *viewBudget},
			Workers: workerAddrs,
		},
	})
	if *dataDir != "" {
		// A view that fails to open is registered as restarting (the first
		// request reopens it) or failed; the healthy ones serve regardless.
		n, err := sched.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spinflow serve: recovering views from %s: %v\n", *dataDir, err)
		}
		per := sched.Stats().PerView
		var states []string
		for _, name := range sched.Names() {
			states = append(states, name+" "+per[name].State)
		}
		fmt.Fprintf(os.Stderr, "spinflow serve: %d of %d durable view(s) from %s serving [%s]\n",
			n, len(states), *dataDir, strings.Join(states, ", "))
	}
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "spinflow serve: %v — closing views and shutting down\n", s)
		close(stop)
	}()
	fmt.Fprintf(os.Stderr, "spinflow serve: listening on %s\n", *addr)
	return live.Serve(*addr, sched, stop, nil)
}

// traceCmd runs one instrumented scenario, renders the per-superstep
// timeline table, and writes the spans to TRACE_<scenario>.json.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale factor")
	par := fs.Int("par", 4, "parallelism (number of partitions)")
	out := fs.String("o", "", "output JSON path (default TRACE_<scenario>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spinflow trace [-scale f] [-par n] [-o file] <cc|live|distributed>")
	}
	scenario := fs.Arg(0)
	opts := harness.Options{Scale: graphgen.Scale(*scale), Parallelism: *par, Out: os.Stdout}
	if scenario == "distributed" {
		// The 2-process scenario spawns its worker from this binary so the
		// trace crosses real process boundaries.
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own binary for worker process: %w", err)
		}
		opts.WorkerBinary = self
	}
	doc, err := harness.Trace(opts, scenario)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = "TRACE_" + scenario + ".json"
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spinflow trace: wrote %s (%d spans, %d supersteps)\n",
		path, len(doc.Spans), len(doc.Rows))
	return nil
}

// explain prints the optimized physical plans (text and Graphviz DOT) for
// the PageRank bulk iteration and the incremental Connected Components
// iteration on the wikipedia stand-in, fused (and, for CC, folded) as the
// iteration drivers run them by default.
func explain(opts harness.Options) error {
	g := graphgen.Wikipedia(graphgen.ScaleTiny)

	prSpec, _ := algorithms.PageRankSpec(g, 20, algorithms.DefaultDamping, 0)
	prPlan, err := optimizer.Optimize(prSpec.Plan, optimizer.Options{
		Parallelism:        4,
		ExpectedIterations: 20,
		Feedback:           map[int]int{prSpec.Input.ID: prSpec.Output.ID},
		Fuse:               true,
	})
	if err != nil {
		return err
	}
	fmt.Println("PageRank bulk iteration (Figure 3) — physical plan:")
	fmt.Print(prPlan.Explain())
	fmt.Println("\nDOT:")
	fmt.Print(prPlan.DOT())

	ccSpec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	// Planned as RunIncremental plans it, at Parallelism 2: there the
	// optimizer absorbs the comparator's keep-the-better fold into
	// toNeighbors (≈ 6 candidates per key and partition on this graph; at
	// 4 partitions it would be ≈ 3, under the fold's 4× bar).
	ccPlan, err := iterative.PlanIncremental(ccSpec, iterative.Config{Parallelism: 2}, 14)
	if err != nil {
		return err
	}
	fmt.Println("\nIncremental Connected Components (Figure 5) — physical plan:")
	fmt.Print(ccPlan.Explain())
	fmt.Println("\nDOT:")
	fmt.Print(ccPlan.DOT())
	return nil
}

func main() {
	// The serve mode has its own flags; dispatch before the experiment
	// flag set claims the command line.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "spinflow: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := worker(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "spinflow: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := traceCmd(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "spinflow: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default laptop scale)")
	par := flag.Int("par", 4, "parallelism (number of partitions/workers)")
	iters := flag.Int("iters", 20, "PageRank iteration count")
	workers := flag.String("workers", "", "comma-separated control addresses of running `spinflow worker` processes for the distributed experiment (default: spawn one)")
	flag.Parse()

	opts := harness.Options{
		Scale:              graphgen.Scale(*scale),
		Parallelism:        *par,
		PageRankIterations: *iters,
		Out:                os.Stdout,
	}
	if *workers != "" {
		opts.WorkerAddrs = strings.Split(*workers, ",")
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: spinflow [flags] <table1|table2|fig2|fig4|fig7|fig8|fig9|fig10|fig11|fig12|distributed|explain|all>...")
		fmt.Fprintln(os.Stderr, "       spinflow serve [-addr :8080] [-par n] [-budget bytes] [-data-dir dir] [-workers n|addr,addr] [-telemetry-addr :9090]")
		fmt.Fprintln(os.Stderr, "       spinflow worker [-listen 127.0.0.1:0] [-telemetry-addr :9091]")
		fmt.Fprintln(os.Stderr, "       spinflow trace [-scale f] [-par n] [-o file] <cc|live|distributed>")
		os.Exit(2)
	}
	for _, name := range args {
		var err error
		switch name {
		case "table1":
			_, err = harness.Table1(opts)
		case "table2":
			_, err = harness.Table2(opts)
		case "fig2":
			_, err = harness.Figure2(opts)
		case "fig4":
			_, err = harness.Figure4(opts)
		case "fig7":
			_, err = harness.Figure7(opts)
		case "fig8":
			_, err = harness.Figure8(opts)
		case "fig9":
			_, err = harness.Figure9(opts)
		case "fig10":
			_, err = harness.Figure10(opts)
		case "fig11":
			_, err = harness.Figure11(opts)
		case "fig12":
			_, err = harness.Figure12(opts)
		case "distributed":
			err = distributed(opts)
		case "all":
			err = harness.All(opts)
		case "explain":
			err = explain(opts)
		default:
			fmt.Fprintf(os.Stderr, "spinflow: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spinflow: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
