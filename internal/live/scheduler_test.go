package live

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

func TestSchedulerCreateGetDrop(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}}})
	defer s.Close()

	v, err := s.Create("social", CC(), ringEdges(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("social"); !ok || got != v {
		t.Fatal("Get did not return the created view")
	}
	if _, err := s.Create("social", CC(), nil, nil); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.Create("", CC(), nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "social" {
		t.Errorf("Names = %v", names)
	}
	if err := s.Drop("social"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("social"); ok {
		t.Error("dropped view still visible")
	}
	if err := s.Drop("social"); err == nil {
		t.Error("double drop did not error")
	}
}

// TestSchedulerAdmissionControl refuses a view whose footprint would
// exceed the global budget, while a small view still fits.
func TestSchedulerAdmissionControl(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		MemoryBudget: 64 * record.EncodedSize,
		DefaultView:  ViewConfig{Config: iterative.Config{Parallelism: 2}}})
	defer s.Close()

	if _, err := s.Create("small", CC(), ringEdges(8), nil); err != nil {
		t.Fatalf("small view refused: %v", err)
	}
	_, err := s.Create("huge", CC(), ringEdges(4000), nil)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("huge view admitted (err = %v)", err)
	}
	if _, ok := s.Get("huge"); ok {
		t.Error("refused view left registered")
	}
	// The refused create must not have disturbed the resident one.
	if v, ok := s.Get("small"); !ok || v.Stats().SolutionRecords != 8 {
		t.Error("resident view damaged by refused admission")
	}
}

// TestSchedulerConcurrentViews mutates and queries several views from
// concurrent goroutines: per-view serialization plus the registry lock
// must keep this race-clean, and every view must track its own oracle.
func TestSchedulerConcurrentViews(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}}})
	defer s.Close()

	const nViews = 4
	var wg sync.WaitGroup
	for i := 0; i < nViews; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("view-%d", i)
			v, err := s.Create(name, CC(), ringEdges(10), nil)
			if err != nil {
				t.Error(err)
				return
			}
			model := NewGraphState()
			for _, mu := range ringEdges(10) {
				model.Apply(mu)
			}
			for b := int64(0); b < 5; b++ {
				muts := []Mutation{
					InsertEdge(100+b, 101+b),
					DeleteEdge(2*b, 2*b+1),
				}
				for _, mu := range muts {
					model.Apply(mu)
				}
				if err := v.Mutate(muts...); err != nil {
					t.Error(err)
					return
				}
				if err := v.Flush(); err != nil {
					t.Error(err)
					return
				}
				v.Query(5)
			}
			assertCC(t, name, v, model)
		}(i)
	}
	wg.Wait()
	if len(s.Names()) != nViews {
		t.Errorf("NumViews = %d, want %d", len(s.Names()), nViews)
	}
	st := s.Stats()
	if st.Views != nViews || len(st.PerView) != nViews {
		t.Errorf("Stats views = %d/%d", st.Views, len(st.PerView))
	}
}

// TestSchedulerCloseFlushesViews pins that Close flushes nothing: it is a
// crash the next open recovers from. An in-memory view's pending batch
// goes with the view, which refuses later calls; a durable view's is in
// its log, and the next Recover replays it.
func TestSchedulerCloseFlushesViews(t *testing.T) {
	dir := t.TempDir()
	for _, durable := range []bool{false, true} {
		cfg := SchedulerConfig{DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}, BatchSize: 1000}}
		if durable {
			cfg.DataDir = dir
		}
		s := NewScheduler(cfg)
		v, err := s.Create("v", CC(), ringEdges(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Mutate(InsertEdge(50, 51)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := v.Stats(); st.DeltasApplied != 0 || st.MutationsPending != 0 {
			t.Errorf("durable=%v: Close applied or kept the pending batch: %+v", durable, st)
		}
		if err := v.Mutate(InsertEdge(52, 53)); err == nil {
			t.Errorf("durable=%v: a closed view accepted a mutation", durable)
		}
		if len(s.Names()) != 0 {
			t.Errorf("durable=%v: views survived Close: %d", durable, len(s.Names()))
		}
	}

	s := NewScheduler(SchedulerConfig{DataDir: dir, DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 1}}})
	defer s.Close()
	if n, err := s.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d views (%v), want 1", n, err)
	}
	v, _ := s.Get("v")
	mustComp(t, v, 51, 50)
	if st := v.Stats(); st.RecoveredFrames != 1 {
		t.Fatalf("recovery replayed %d frames, want the 1 pending at Close", st.RecoveredFrames)
	}
}

// TestSchedulerObsExport wires a telemetry registry into the scheduler
// and checks the whole plane: views inherit the registry (latency
// histograms + spans record), and the collector exports scheduler-wide
// and per-view gauges into the Prometheus text.
func TestSchedulerObsExport(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(SchedulerConfig{
		Obs:         reg,
		DefaultView: ViewConfig{Config: iterative.Config{Parallelism: 2}}})
	defer s.Close()

	v, err := s.Create("pr", CC(), ringEdges(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mutate(InsertEdge(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	v.Query(100)

	for _, h := range []string{"live_query_duration", "live_mutate_duration", "live_flush_duration"} {
		if reg.Histogram(h).Snapshot().Count == 0 {
			t.Errorf("histogram %s recorded nothing", h)
		}
	}
	// The cold fixpoint and the flush both ran supersteps under the
	// view's trace ID; the flush recorded a flush-phase span.
	if v.cfg.TraceID == 0 {
		t.Fatal("view did not mint a trace ID")
	}
	spans := reg.Trace().SpansFor(v.cfg.TraceID)
	var phases = map[obs.Phase]int{}
	for _, sp := range spans {
		phases[sp.Phase]++
	}
	if phases[obs.PhaseSuperstep] == 0 || phases[obs.PhaseFlush] == 0 {
		t.Errorf("span phases = %v, want superstep and flush spans", phases)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"spinflow_scheduler_views 1",
		`spinflow_view_flushes{view="pr"}`,
		`spinflow_view_solution_records{view="pr"} 17`,
		"spinflow_live_query_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
