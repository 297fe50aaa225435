// Package metrics collects the work counters the paper's evaluation
// reports: records shipped over the network layer, working-set elements
// ("messages"), solution-set accesses and updates, and per-iteration wall
// times (Figures 2, 8, 10, 11, 12).
//
// Counters are atomics so the parallel runtime can update them from any
// partition without coordination; per-iteration snapshots are taken at
// superstep boundaries. The runtime's per-record work counters
// (UDFInvocations, RecordsShipped, RecordsShippedRemote, SolutionAccesses,
// SolutionUpdates) advance at task end, not per record: tasks tally in
// local integers and add once per task per superstep. A scrape in the
// middle of a superstep therefore lags by at most that superstep; totals
// after a superstep — and so at the end of a run — are exact.
package metrics

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"
)

// Counters aggregates work done by one execution (one job, or one
// superstep if snapshotted per iteration).
type Counters struct {
	// RecordsShipped counts records crossing a partition/broadcast
	// exchange into a partition other than the one that produced them —
	// the proxy for network traffic. Records a partitioner routes back
	// into the producing partition never leave the worker and are not
	// counted.
	RecordsShipped atomic.Int64
	// RecordsShippedRemote counts the subset of shipped records whose
	// destination partition is hosted by another process, i.e. records
	// that actually crossed the transport.
	RecordsShippedRemote atomic.Int64
	// RemoteBatches counts record batches shipped to peer processes by a
	// distributed transport.
	RemoteBatches atomic.Int64
	// RemoteBytes counts wire bytes (headers + frames) shipped to peer
	// processes by a distributed transport.
	RemoteBytes atomic.Int64
	// TransportErrors counts transport-level failures: connection drops,
	// send failures, and corrupt inbound frames.
	TransportErrors atomic.Int64
	// DroppedBatches counts batches pushed into an already-closed
	// exchange queue (a straggler producer racing session teardown); the
	// batch is recycled and dropped instead of leaking out of the pool.
	DroppedBatches atomic.Int64
	// WorksetElements counts records added to the working set (the
	// paper's "messages sent").
	WorksetElements atomic.Int64
	// SolutionAccesses counts reads of solution-set entries
	// (Figure 2's "vertices inspected").
	SolutionAccesses atomic.Int64
	// SolutionUpdates counts writes to solution-set entries
	// (Figure 2's "vertices changed").
	SolutionUpdates atomic.Int64
	// UDFInvocations counts user-function calls across all operators. A
	// fold the engine runs as a typed kernel — a declared sum's combiners
	// and its hash aggregation, the incremental engine's keep-the-better
	// workset fold — calls no UDF and counts nothing, so bulk PageRank
	// counts one call per join pair and none for its sums.
	UDFInvocations atomic.Int64
	// WorkersSpawned counts long-lived partition-pinned workers started
	// by executor sessions. An iteration that reuses its session across
	// supersteps spawns node×partition workers once, not once per pass.
	WorkersSpawned atomic.Int64
	// ExchangesReused counts exchanges reset and reused by a later
	// superstep instead of being allocated from scratch.
	ExchangesReused atomic.Int64
	// BatchesAllocated counts record batches newly allocated by the
	// batch pool.
	BatchesAllocated atomic.Int64
	// BatchesRecycled counts consumed batches returned to the pool for
	// reuse by a later writer.
	BatchesRecycled atomic.Int64
	// SolutionBytes is a gauge of the solution set's resident in-memory
	// footprint (serialized-form estimate), refreshed on every merge.
	SolutionBytes atomic.Int64
	// SolutionSpills counts solution-set partitions evicted to disk by the
	// spillable backend under memory pressure.
	SolutionSpills atomic.Int64
	// SolutionReloads counts spilled solution-set partitions replayed back
	// into memory on access.
	SolutionReloads atomic.Int64
	// DeltasApplied counts streamed graph mutations absorbed by live views
	// (each edge/vertex mutation counts once, when its batch is flushed).
	DeltasApplied atomic.Int64
	// WarmRestarts counts incremental-iteration restarts over an existing
	// resident solution set (live-view maintenance rounds), as opposed to
	// cold runs from S0.
	WarmRestarts atomic.Int64
	// PartialRecomputes counts deletion repairs that re-ran the fixpoint
	// over only the affected region of the graph.
	PartialRecomputes atomic.Int64
	// FullRecomputes counts deletion repairs that fell back to a full
	// recompute from scratch (the last resort).
	FullRecomputes atomic.Int64
	// MaintenanceSupersteps counts supersteps executed by warm restarts —
	// the marginal fixpoint work of absorbing mutations.
	MaintenanceSupersteps atomic.Int64
	// WALAppends counts acknowledged mutation batches appended (and
	// fsynced) to live-view write-ahead logs before Mutate returned.
	WALAppends atomic.Int64
	// WALBytes counts bytes appended to live-view write-ahead logs.
	WALBytes atomic.Int64
	// SnapshotsWritten counts streaming solution-set snapshots persisted
	// by durable live views: a new view's base snapshot, the periodic
	// cadence, explicit checkpoints, and a recovery that passed over an
	// unreadable snapshot.
	SnapshotsWritten atomic.Int64
	// RecoveryReplays counts WAL frames replayed through the maintenance
	// path while recovering durable live views after a crash.
	RecoveryReplays atomic.Int64
	// Reoptimizations counts successful mid-run re-plans of the Δ
	// dataflow after the working set drifted from the costed estimate.
	Reoptimizations atomic.Int64
	// GreedyPlans counts plans produced by the greedy zero-statistics
	// fast-path planner (initial plans and mid-run re-plans alike).
	GreedyPlans atomic.Int64
	// PlanCacheHits counted re-optimizations served from a memoized plan.
	// Mid-run re-plans no longer go through a plan cache, so nothing
	// advances it; it stays because the benchmark program reports it
	// (plan_cache_hits_per_op).
	PlanCacheHits atomic.Int64
	// FusedOperators counts unions, Map operators and combiners folded
	// into upstream nodes by the operator-fusion rewrite, summed over produced
	// plans.
	FusedOperators atomic.Int64
	// PlanNanos accumulates wall time spent inside the plan optimizer
	// (initial planning and re-planning), in nanoseconds.
	PlanNanos atomic.Int64
}

// Snapshot is an immutable copy of counter values.
type Snapshot struct {
	RecordsShipped       int64
	RecordsShippedRemote int64
	RemoteBatches        int64
	RemoteBytes          int64
	TransportErrors      int64
	DroppedBatches       int64

	WorksetElements  int64
	SolutionAccesses int64
	SolutionUpdates  int64
	UDFInvocations   int64
	WorkersSpawned   int64
	ExchangesReused  int64
	BatchesAllocated int64
	BatchesRecycled  int64
	SolutionBytes    int64
	SolutionSpills   int64
	SolutionReloads  int64

	DeltasApplied         int64
	WarmRestarts          int64
	PartialRecomputes     int64
	FullRecomputes        int64
	MaintenanceSupersteps int64

	WALAppends       int64
	WALBytes         int64
	SnapshotsWritten int64
	RecoveryReplays  int64

	Reoptimizations int64
	GreedyPlans     int64
	PlanCacheHits   int64
	FusedOperators  int64
	PlanNanos       int64
}

// fieldPair links one Counters field to its same-named Snapshot field.
// The mapping is computed once at package init by reflection, so adding a
// counter automatically extends Snapshot/Sub/Reset/Fields — and a counter
// without a matching Snapshot field (or vice versa) fails loudly at init
// instead of being silently dropped from reports.
type fieldPair struct {
	name string
	c, s int // field index in Counters / Snapshot
}

var fieldPairs = buildFieldPairs()

func buildFieldPairs() []fieldPair {
	ct := reflect.TypeOf(Counters{})
	st := reflect.TypeOf(Snapshot{})
	atomicT := reflect.TypeOf(atomic.Int64{})
	if ct.NumField() != st.NumField() {
		panic(fmt.Sprintf("metrics: Counters has %d fields, Snapshot has %d — every counter needs a same-named snapshot field", ct.NumField(), st.NumField()))
	}
	pairs := make([]fieldPair, 0, ct.NumField())
	for i := 0; i < ct.NumField(); i++ {
		cf := ct.Field(i)
		if cf.Type != atomicT {
			panic(fmt.Sprintf("metrics: Counters.%s is %s, want atomic.Int64", cf.Name, cf.Type))
		}
		sf, ok := st.FieldByName(cf.Name)
		if !ok {
			panic(fmt.Sprintf("metrics: Counters.%s has no matching Snapshot field", cf.Name))
		}
		if sf.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("metrics: Snapshot.%s is %s, want int64", sf.Name, sf.Type))
		}
		pairs = append(pairs, fieldPair{name: cf.Name, c: i, s: sf.Index[0]})
	}
	return pairs
}

// Snapshot captures current counter values.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	cv := reflect.ValueOf(c).Elem()
	sv := reflect.ValueOf(&s).Elem()
	for _, f := range fieldPairs {
		sv.Field(f.s).SetInt(cv.Field(f.c).Addr().Interface().(*atomic.Int64).Load())
	}
	return s
}

// Sub returns the delta s - o, the work done between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	var d Snapshot
	sv := reflect.ValueOf(s)
	ov := reflect.ValueOf(o)
	dv := reflect.ValueOf(&d).Elem()
	for _, f := range fieldPairs {
		dv.Field(f.s).SetInt(sv.Field(f.s).Int() - ov.Field(f.s).Int())
	}
	return d
}

// Field is one named counter value, for exporters that iterate the full
// set instead of naming fields.
type Field struct {
	Name  string
	Value int64
}

// Fields returns every counter value in declaration order, named by its
// struct field. New counters appear here automatically.
func (s Snapshot) Fields() []Field {
	sv := reflect.ValueOf(s)
	out := make([]Field, len(fieldPairs))
	for i, f := range fieldPairs {
		out[i] = Field{Name: f.name, Value: sv.Field(f.s).Int()}
	}
	return out
}

// IterationStat records one iteration/superstep of an iterative job — one
// data point in Figures 2, 8, 10, 11 and 12.
type IterationStat struct {
	Iteration int
	Duration  time.Duration
	Work      Snapshot
}

// TraceEvent is an out-of-band occurrence during a run (a re-optimization,
// a re-optimization failure), anchored to the superstep it followed.
type TraceEvent struct {
	Iteration int
	Event     string
}

// traceCap bounds Trace.Iterations and Trace.Events. A live view flushing
// every few milliseconds records thousands of maintenance supersteps per
// minute; without a cap a week-old view's trace grows without bound.
const traceCap = 4096

// Trace accumulates per-iteration statistics for one job run. Retention
// is bounded: once an entry list reaches the cap, the oldest eighth is
// discarded in one block (amortized O(1) per Add) and counted in Dropped.
// Iterations and Events stay plain, ordered slices — consumers that chart
// or diff them are unaffected until a run actually exceeds the cap.
type Trace struct {
	Iterations []IterationStat
	Total      time.Duration
	// Events holds out-of-band occurrences in arrival order.
	Events []TraceEvent
	// Dropped counts entries discarded to stay under the cap (traceCap,
	// for each list separately), across both lists. Total still reflects
	// every iteration ever added.
	Dropped int64
}

// Add appends one iteration's stats.
func (t *Trace) Add(st IterationStat) {
	if len(t.Iterations) >= traceCap {
		const drop = traceCap / 8
		n := copy(t.Iterations, t.Iterations[drop:])
		t.Iterations = t.Iterations[:n]
		t.Dropped += int64(drop)
	}
	t.Iterations = append(t.Iterations, st)
	t.Total += st.Duration
}

// AddEvent records an out-of-band occurrence after the given iteration.
func (t *Trace) AddEvent(iteration int, event string) {
	if len(t.Events) >= traceCap {
		const drop = traceCap / 8
		n := copy(t.Events, t.Events[drop:])
		t.Events = t.Events[:n]
		t.Dropped += int64(drop)
	}
	t.Events = append(t.Events, TraceEvent{Iteration: iteration, Event: event})
}
