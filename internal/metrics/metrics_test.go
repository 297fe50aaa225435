package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSnapshotAndSub(t *testing.T) {
	var c Counters
	c.RecordsShipped.Add(10)
	c.WorksetElements.Add(5)
	s1 := c.Snapshot()
	c.RecordsShipped.Add(7)
	c.SolutionUpdates.Add(3)
	d := c.Snapshot().Sub(s1)
	if d.RecordsShipped != 7 || d.WorksetElements != 0 || d.SolutionUpdates != 3 {
		t.Errorf("delta wrong: %+v", d)
	}
}

func TestRuntimeReuseCounters(t *testing.T) {
	var c Counters
	c.WorkersSpawned.Add(8)
	c.ExchangesReused.Add(5)
	c.BatchesAllocated.Add(10)
	c.BatchesRecycled.Add(40)
	s1 := c.Snapshot()
	c.BatchesRecycled.Add(2)
	d := c.Snapshot().Sub(s1)
	if s1.WorkersSpawned != 8 || s1.ExchangesReused != 5 || s1.BatchesAllocated != 10 {
		t.Errorf("snapshot wrong: %+v", s1)
	}
	if d.BatchesRecycled != 2 || d.WorkersSpawned != 0 {
		t.Errorf("delta wrong: %+v", d)
	}
}

func TestMaintenanceCounters(t *testing.T) {
	var c Counters
	c.DeltasApplied.Add(12)
	c.WarmRestarts.Add(3)
	c.MaintenanceSupersteps.Add(7)
	s1 := c.Snapshot()
	if s1.DeltasApplied != 12 || s1.WarmRestarts != 3 || s1.MaintenanceSupersteps != 7 {
		t.Errorf("snapshot wrong: %+v", s1)
	}
	c.PartialRecomputes.Add(2)
	c.FullRecomputes.Add(1)
	d := c.Snapshot().Sub(s1)
	if d.PartialRecomputes != 2 || d.FullRecomputes != 1 || d.DeltasApplied != 0 {
		t.Errorf("delta wrong: %+v", d)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.RecordsShipped.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().RecordsShipped; got != 8000 {
		t.Errorf("concurrent adds lost updates: %d", got)
	}
}

func TestTrace(t *testing.T) {
	var tr Trace
	tr.Add(IterationStat{Iteration: 0, Duration: time.Millisecond})
	tr.Add(IterationStat{Iteration: 1, Duration: 2 * time.Millisecond})
	if len(tr.Iterations) != 2 {
		t.Errorf("iterations = %d", len(tr.Iterations))
	}
	if tr.Total != 3*time.Millisecond {
		t.Errorf("total = %v", tr.Total)
	}
}

// TestFieldParity fails when a counter field is added without matching
// snapshot coverage (or vice versa). The reflect-based snapshot path
// panics at package init on mismatch, so this test mostly documents the
// guarantee — but it also pins value-level roundtrip coverage: every
// field must survive Snapshot, Sub, and Fields with a distinct value.
func TestFieldParity(t *testing.T) {
	ct := reflect.TypeOf(Counters{})
	st := reflect.TypeOf(Snapshot{})
	if ct.NumField() != st.NumField() {
		t.Fatalf("Counters has %d fields, Snapshot has %d", ct.NumField(), st.NumField())
	}
	if len(fieldPairs) != ct.NumField() {
		t.Fatalf("fieldPairs covers %d of %d counter fields", len(fieldPairs), ct.NumField())
	}

	// Give every counter a distinct value via reflection, so a field
	// silently skipped by Snapshot/Sub/Fields shows up as a wrong value.
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < ct.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(100 + i))
	}
	s := c.Snapshot()
	sv := reflect.ValueOf(s)
	for i := 0; i < st.NumField(); i++ {
		name := ct.Field(i).Name
		want := int64(100 + i)
		got, ok := sv.Type().FieldByName(name)
		if !ok {
			t.Fatalf("Snapshot missing field %s", name)
		}
		if v := sv.FieldByIndex(got.Index).Int(); v != want {
			t.Errorf("Snapshot.%s = %d, want %d", name, v, want)
		}
	}

	fields := s.Fields()
	if len(fields) != ct.NumField() {
		t.Fatalf("Fields() returned %d entries, want %d", len(fields), ct.NumField())
	}
	seen := map[string]int64{}
	for _, f := range fields {
		seen[f.Name] = f.Value
	}
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if seen[name] != int64(100+i) {
			t.Errorf("Fields()[%s] = %d, want %d", name, seen[name], 100+i)
		}
	}

	// Sub must cover every field too: s - s == zero, s - zero == s.
	if d := s.Sub(s); d != (Snapshot{}) {
		t.Errorf("s.Sub(s) = %+v, want zero", d)
	}
	if d := s.Sub(Snapshot{}); d != s {
		t.Errorf("s.Sub(zero) != s: %+v", d)
	}
}

func TestTraceCapBoundsIterations(t *testing.T) {
	const added = 3*traceCap + 100
	var tr Trace
	for i := 0; i < added; i++ {
		tr.Add(IterationStat{Iteration: i, Duration: time.Microsecond})
	}
	if n := len(tr.Iterations); n > traceCap {
		t.Fatalf("retained %d iterations, cap %d", n, traceCap)
	}
	if tr.Dropped == 0 {
		t.Fatal("Dropped not counted")
	}
	if int(tr.Dropped)+len(tr.Iterations) != added {
		t.Errorf("dropped %d + retained %d != %d added", tr.Dropped, len(tr.Iterations), added)
	}
	// Retained entries are the newest, still in order.
	last := tr.Iterations[len(tr.Iterations)-1]
	if last.Iteration != added-1 {
		t.Errorf("newest retained iteration = %d, want %d", last.Iteration, added-1)
	}
	for i := 1; i < len(tr.Iterations); i++ {
		if tr.Iterations[i].Iteration != tr.Iterations[i-1].Iteration+1 {
			t.Fatalf("retained iterations not contiguous at %d", i)
		}
	}
	// Total still reflects every add.
	if tr.Total != added*time.Microsecond {
		t.Errorf("Total = %v, want %v", tr.Total, added*time.Microsecond)
	}
}

func TestTraceCapBoundsEvents(t *testing.T) {
	const added = 2*traceCap + 7
	var tr Trace
	for i := 0; i < added; i++ {
		tr.AddEvent(i, "evt")
	}
	if n := len(tr.Events); n > traceCap {
		t.Fatalf("retained %d events, cap %d", n, traceCap)
	}
	if tr.Events[len(tr.Events)-1].Iteration != added-1 {
		t.Errorf("newest event = %d, want %d", tr.Events[len(tr.Events)-1].Iteration, added-1)
	}
}

// TestTraceDefaultCap: a trace keeps everything up to the cap and starts
// dropping past it.
func TestTraceDefaultCap(t *testing.T) {
	var tr Trace
	for i := 0; i < traceCap; i++ {
		tr.Add(IterationStat{Iteration: i})
	}
	if n := len(tr.Iterations); n != traceCap || tr.Dropped != 0 {
		t.Fatalf("at the cap: %d retained, %d dropped; want %d, 0", n, tr.Dropped, traceCap)
	}
	for i := 0; i < 100; i++ {
		tr.Add(IterationStat{Iteration: traceCap + i})
	}
	if n := len(tr.Iterations); n > traceCap {
		t.Fatalf("default cap not applied: %d retained", n)
	}
	if tr.Dropped == 0 {
		t.Fatal("Dropped not counted under default cap")
	}
}
