package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/difftest"
	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/record"
)

// The outcomes of one (frame, fault) run of TestEveryControlCut, in the
// order a run is charged to them: the worst one it earns. back is a run
// whose fault took the view down and the scheduler's Get brought it back.
var cutColumns = []string{"identical", "typed error then recovered", "back", "hang", "panic", "wrong"}

const (
	cutIdentical = iota
	cutTyped
	cutBack
	cutHang
	cutPanic
	cutWrong
)

// cutDeadline is the control deadline TestEveryControlCut runs under, and
// cutSlack how much longer than it one public call may take before the run
// counts as a hang. cutWatchdog gives up on a run altogether.
const (
	cutDeadline = 150 * time.Millisecond
	cutSlack    = 2 * time.Second
	cutWatchdog = 20 * time.Second
)

// cutParallel is how many runs TestEveryControlCut drives at once against
// its one worker, each on its own view and file system: a held frame
// spends most of its run waiting out the deadline.
const cutParallel = 12

// The script every run drives: a durable CC view sharded over two hosts —
// a 16-ring beside four 8-vertex islands — created through a scheduler,
// fed five batches, checkpointed, queried on both hosts, polled for its
// stats, brought back if it went down (cutBackAgain) and closed. The third
// batch is a bounded repair (one island's edge) and the fifth a full
// recompute (the ring, which the first batch joined to two islands, is
// more than half the view).
var (
	cutInitial = append(ringEdges(16), islandEdges(4, 8, 100)...)
	cutBatches = [][]Mutation{
		{InsertEdge(15, 100), InsertEdge(3, 132)},
		{InsertEdge(300, 301), InsertEdge(301, 302)},
		{DeleteEdge(164, 165)},
		{InsertEdge(196, 302)},
		{DeleteEdge(0, 1)},
	}
	cutKeys = []int64{0, 1, 5, 9, 100, 132, 165, 196, 302}
	// cutAfterBack is the batch a view brought back must take.
	cutAfterBack = []Mutation{InsertEdge(400, 401)}
)

// cutPlan numbers the frames of one run across every connection it dials
// and faults one of them (at, counted from 0; -1 faults none). A plan that
// records keeps each frame's direction and verb.
type cutPlan struct {
	at     int
	fault  frameFault
	record bool

	mu     sync.Mutex
	frames int
	kinds  []string
}

func (p *cutPlan) hook(out bool, body []byte) (frameFault, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.frames
	p.frames++
	if p.record {
		var msg shardMsg
		json.Unmarshal(body, &msg)
		dir := "←"
		if out {
			dir = "→"
		}
		p.kinds = append(p.kinds, dir+string(msg.Kind))
	}
	if i == p.at {
		return p.fault, body
	}
	return passFrame, body
}

// dial is the coordinator's control dial with every frame passing the plan.
func (p *cutPlan) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := distrib.DialWorker(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: conn, hook: p.hook}, nil
}

// cutResult is what one run came to, and how long the Get that brought
// the view back took (zero if it stayed up).
type cutResult struct {
	col   int
	why   string
	stats ViewStats
	hosts map[int]bool // which hosts the queried keys live on
	took  time.Duration
}

// cutOracle is the union-find labelling of the initial graph plus batches.
func cutOracle(batches [][]Mutation) map[int64]int64 {
	model := NewGraphState()
	for _, m := range cutInitial {
		model.Apply(m)
	}
	for _, b := range batches {
		for _, m := range b {
			model.Apply(m)
		}
	}
	return difftest.CCOf(model.Vertices(), model.UndirectedRecords())
}

// runCutScript drives the script once under plan p against the worker at
// addr through a scheduler whose views dial through p, then closes the
// scheduler and recovers the view in process onto the same worker, and
// judges the run.
func runCutScript(addr string, p *cutPlan) (res cutResult) {
	const dataDir = "/data"
	mem := newMemFS(dataDir)
	cfg := ViewConfig{Config: iterative.Config{Parallelism: 2}, Durable: true, DataDir: dataDir,
		Workers: []string{addr}, fs: mem}
	faulty := cfg
	faulty.dial = p.dial
	s := NewScheduler(SchedulerConfig{DataDir: dataDir, DefaultView: faulty})
	defer s.Close()
	charge := func(col int, format string, args ...any) {
		if col > res.col {
			res.col, res.why = col, fmt.Sprintf(format, args...)
		}
	}
	erred := false
	timed := func(what string, f func() error) error {
		start := time.Now()
		err := f()
		if d := time.Since(start); d > cutDeadline+cutSlack {
			charge(cutHang, "%s took %v", what, d)
		}
		if err != nil {
			erred = true
		}
		return err
	}
	// A view operation fails only down, around ErrViewDown.
	viewOp := func(what string, f func() error) {
		if err := timed(what, f); err != nil && !errors.Is(err, ErrViewDown) {
			charge(cutWrong, "%s: untyped error %v", what, err)
		}
	}

	// acked counts the batches acknowledged; sent lists every batch handed
	// to Mutate, and logged those the log holds, as far as is known.
	var acked int
	var sent, logged [][]Mutation
	var v *LiveView
	timed("create", func() (err error) {
		v, err = s.Create("cut", CC(), cutInitial, nil)
		return err
	})
	if v != nil {
		for i, b := range cutBatches {
			viewOp(fmt.Sprintf("mutate %d", i), func() error {
				sent = append(sent, b)
				err := v.Mutate(b...)
				if err == nil {
					acked++
				}
				return err
			})
			viewOp(fmt.Sprintf("flush %d", i), v.Flush)
		}
		viewOp("checkpoint", v.Checkpoint)
		logged = sent[:acked]
		want := cutOracle(logged)
		res.hosts = map[int]bool{}
		for _, k := range cutKeys {
			res.hosts[v.sess.core.place[v.sess.core.sol.PartitionFor(k)]] = true
			var r record.Record
			var ok bool
			timed(fmt.Sprintf("query %d", k), func() error {
				r, ok = v.Query(k)
				return nil
			})
			switch {
			case ok && (erred || r.A != k || r.B != want[k]):
				charge(cutWrong, "query %d = %+v (view erred %v), oracle %d", k, r, erred, want[k])
			case !ok && v.downErr() == nil:
				charge(cutWrong, "query %d found nothing on a view that is up", k)
			case !ok:
				erred = true
			}
		}
		timed("stats", func() error {
			res.stats = v.Stats()
			if res.stats.LastError != "" {
				return errors.New(res.stats.LastError)
			}
			if n := res.stats.SolutionRecords; n != len(want) {
				charge(cutWrong, "stats of a view that is up count %d records, oracle %d", n, len(want))
			}
			return nil
		})
		if erred && v.downErr() == nil {
			charge(cutWrong, "an operation failed and the view is still up")
		}
		if v.downErr() != nil {
			logged = cutBackAgain(s, sent, acked, timed, charge, &res)
		}
		if err := timed("close", s.Close); err != nil {
			charge(cutWrong, "close: %v", err)
		}
	}
	if erred {
		charge(cutTyped, "")
	}

	var back *LiveView
	if err := timed("recover", func() (err error) {
		back, err = NewView("cut", CC(), cutInitial, cfg)
		return err
	}); err != nil {
		charge(cutWrong, "recovery: %v", err)
		return res
	}
	defer back.Close()
	if what := cutDiff(back, logged); what != "" {
		charge(cutWrong, "recovered %s", what)
	}
	return res
}

// cutBackAgain brings the down view back through the scheduler's Get: it
// must serve again with the oracle's solution of the batches its log holds
// — the acknowledged ones, and maybe a refused one, which the log's seq
// tells — and take one more batch. It returns the batches logged.
func cutBackAgain(s *Scheduler, sent [][]Mutation, acked int, timed func(string, func() error) error,
	charge func(int, string, ...any), res *cutResult) [][]Mutation {
	var v *LiveView
	start := time.Now()
	timed("back", func() error {
		v, _ = s.Get("cut")
		return nil
	})
	if v == nil || v.downErr() != nil {
		charge(cutWrong, "not back: %v", v.downErr())
		return sent[:acked]
	}
	res.took = time.Since(start)
	// The log's frames past the create's: the first refused batch may have
	// reached the log, no later one can (a down view refuses before it).
	k := int(v.dur.wal.Seq()) - 1
	if k < acked || k > min(acked+1, len(sent)) {
		charge(cutWrong, "back with %d batches logged, %d acknowledged of %d sent", k, acked, len(sent))
		return sent[:acked]
	}
	logged := sent[:k]
	if what := cutDiff(v, logged); what != "" {
		charge(cutWrong, "back: %s", what)
	}
	if err := timed("mutate after back", func() error { return v.Mutate(cutAfterBack...) }); err != nil {
		charge(cutWrong, "mutate after back: %v", err)
		return logged
	}
	logged = append(slices.Clone(logged), cutAfterBack)
	if err := timed("flush after back", v.Flush); err != nil {
		charge(cutWrong, "flush after back: %v", err)
	} else if what := cutDiff(v, logged); what != "" {
		charge(cutWrong, "after back: %s", what)
	}
	charge(cutBack, "")
	return logged
}

// cutDiff compares v's solution with the union-find oracle of batches and
// names the first difference ("" if none).
func cutDiff(v *LiveView, batches [][]Mutation) string {
	got := algorithms.ComponentsToMap(v.Snapshot())
	want := cutOracle(batches)
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, oracle of %d batches has %d", len(got), len(batches), len(want))
	}
	for vid, c := range want {
		if got[vid] != c {
			return fmt.Sprintf("vertex %d -> %d, oracle %d", vid, got[vid], c)
		}
	}
	return ""
}

// guardedCut runs one run, charging a panic or a run that never ends.
func guardedCut(addr string, p *cutPlan) cutResult {
	done := make(chan cutResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- cutResult{col: cutPanic, why: fmt.Sprint("panic: ", r)}
			}
		}()
		done <- runCutScript(addr, p)
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(cutWatchdog):
		return cutResult{col: cutHang, why: fmt.Sprintf("no end after %v", cutWatchdog)}
	}
}

// TestEveryControlCut cuts the control connection of a sharded session at
// every frame the script exchanges, in both directions, three ways: the
// connection closes before the frame, the frame is torn in half and the
// connection closes, or the frame is held past the deadline. Every public
// call must return nil or a typed error within the deadline (plus slack);
// a view that went down must come back through the scheduler's Get, whose
// reopen dials through the same plan, and take a batch; and the view,
// closed and recovered onto the same worker, must equal the union-find
// oracle of the batches its log holds. The table of runs by fault and
// outcome, and the time to serving by fault, are logged with `go test -v
// -run TestEveryControlCut`; hang, panic and wrong must read zero.
func TestEveryControlCut(t *testing.T) {
	start := time.Now()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	defer func(d time.Duration) { controlRoundTimeout = d }(controlRoundTimeout)
	controlRoundTimeout = cutDeadline
	addr := startWorkers(t, 1)[0]
	baseline := goruntime.NumGoroutine()

	clean := &cutPlan{at: -1, record: true}
	if r := guardedCut(addr, clean); r.col != cutIdentical {
		t.Fatalf("the script without a fault: %s (%s)", cutColumns[r.col], r.why)
	} else if st := r.stats; st.PartialRecomputes < 1 || st.FullRecomputes < 1 || !r.hosts[0] || !r.hosts[1] {
		t.Fatalf("the script no longer covers its ground: %d bounded and %d full recomputes, keys on hosts %v",
			st.PartialRecomputes, st.FullRecomputes, r.hosts)
	}
	frames := clean.frames
	out := 0
	for _, k := range clean.kinds {
		if strings.HasPrefix(k, "→") {
			out++
		}
	}

	type run struct {
		at    int
		fault frameFault
		res   cutResult
	}
	var runs []*run
	for at := range frames {
		for _, f := range []frameFault{closeBefore, tearFrame, holdFrame} {
			runs = append(runs, &run{at: at, fault: f})
		}
	}
	next := make(chan *run)
	var wg sync.WaitGroup
	for range cutParallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				r.res = guardedCut(addr, &cutPlan{at: r.at, fault: r.fault})
			}
		}()
	}
	for _, r := range runs {
		next <- r
	}
	close(next)
	wg.Wait()

	table := map[frameFault][]int{}
	took := map[frameFault][]time.Duration{}
	var bad []string
	for _, r := range runs {
		if table[r.fault] == nil {
			table[r.fault] = make([]int, len(cutColumns))
		}
		table[r.fault][r.res.col]++
		if r.res.took > 0 {
			took[r.fault] = append(took[r.fault], r.res.took)
		}
		if r.res.col >= cutHang {
			bad = append(bad, fmt.Sprintf("frame %d (%s) %s: %s: %s",
				r.at, clean.kinds[r.at], faultNames[r.fault], cutColumns[r.res.col], r.res.why))
		}
	}
	t.Logf("%d frames per script (%d to the worker, %d back), %d runs, deadline %v, %d at a time",
		frames, out, frames-out, len(runs), cutDeadline, cutParallel)
	t.Logf("| fault | %s |", strings.Join(cutColumns, " | "))
	t.Logf("|---|%s", strings.Repeat("---|", len(cutColumns)))
	for _, f := range []frameFault{closeBefore, tearFrame, holdFrame} {
		cells := make([]string, len(cutColumns))
		for i, n := range table[f] {
			cells[i] = fmt.Sprint(n)
		}
		t.Logf("| %s | %s |", faultNames[f], strings.Join(cells, " | "))
	}
	for _, f := range []frameFault{closeBefore, tearFrame, holdFrame} {
		if d := took[f]; len(d) > 0 {
			slices.Sort(d)
			t.Logf("time to serving after %s: %d views back, p50 %v, max %v",
				faultNames[f], len(d), d[len(d)/2].Round(time.Microsecond), d[len(d)-1].Round(time.Microsecond))
		}
	}
	for _, b := range bad {
		t.Error(b)
	}

	// The worker still accepts sessions, and nothing is left behind.
	if r := guardedCut(addr, &cutPlan{at: -1}); r.col != cutIdentical {
		t.Fatalf("the script after the enumeration: %s (%s)", cutColumns[r.col], r.why)
	}
	waitForGoroutines(t, baseline, "every control cut")
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("%d temporary files left behind", len(left))
	}
	t.Logf("wall time %v", time.Since(start).Round(time.Millisecond))
}
