package runtime

import (
	"context"
	goruntime "runtime"
	"runtime/pprof"
	"slices"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// exchangeBatch is the number of records per exchange batch.
const exchangeBatch = 256

// Config configures an Executor.
type Config struct {
	// Metrics receives work counters (optional).
	Metrics *metrics.Counters
	// Trace receives superstep/operator/ship phase spans (optional). A nil
	// sink costs one branch per would-be span on the superstep path.
	Trace obs.TraceSink
	// TraceID stamps recorded spans so one logical run's spans can be
	// reassembled across processes; distributed transports also carry it in
	// frame headers. Zero means untraced (spans still record if Trace is
	// set, under trace ID 0).
	TraceID obs.TraceID
	// TraceLabel names the run on its superstep-level spans (a job or view
	// name). Operator spans are labeled by plan-node name instead.
	TraceLabel string
	// Host is this process's host ID in a distributed session (0 when
	// single-process), stamped on spans.
	Host int
}

// Executor runs physical plans. It persists across the supersteps of an
// iteration: loop-invariant caches (including cached join hash tables) and
// the solution set survive between Run calls, which is the feedback-channel
// execution model of §4.2 — the dynamic data path is re-evaluated, the
// constant data path is not.
type Executor struct {
	cfg Config
	// slots holds materialized loop-invariant inputs.
	slots map[slotKey]*cacheSlot
	// cacheGen is bumped whenever the slot map is replaced, so open
	// sessions know their compiled wiring points at stale cache slots.
	cacheGen uint64
	// Solution is the incremental iteration's partitioned state (nil for
	// plain and bulk-iterative jobs).
	Solution *SolutionSet
	// DirectMerge applies SolutionJoin delta records to the solution set
	// immediately instead of caching them until the superstep ends, and
	// drops records the comparator rejects. Only valid when the iteration
	// driver has verified the §5.2/§5.3 locality conditions (updates never
	// cross partition boundaries).
	DirectMerge bool
	// Placeholder supplies per-partition records for IterationInput nodes,
	// keyed by logical node ID.
	Placeholder map[int][][]record.Record
	// seedFolds are SetPlaceholderFolded's per-partition folds, reused.
	seedFolds []*combineFold
}

type slotKey struct {
	node, input, part int
}

// cacheSlot materializes one partition of one cached input. Exactly one of
// the representations is used, depending on the consumer's local strategy
// (§4.3: the cache stores records "possibly as a hash table, or B+-Tree,
// depending on the execution strategy of the operator"). Caches stay in
// memory: nothing spills them.
type cacheSlot struct {
	filled  bool
	batches []record.Batch
	recs    []record.Record
	table   *groupTable
}

// NewExecutor creates an executor.
func NewExecutor(cfg Config) *Executor {
	return &Executor{
		cfg:         cfg,
		slots:       make(map[slotKey]*cacheSlot),
		Placeholder: make(map[int][][]record.Record),
	}
}

// Close drops the loop-invariant caches. The executor remains usable;
// the caches are recomputed if the plan runs again. Sessions are not
// closed — but any still open recompile their wiring on the next Run,
// because the cache generation has moved on.
func (e *Executor) Close() {
	e.slots = make(map[slotKey]*cacheSlot)
	e.cacheGen++
}

// SetPlaceholder installs the per-partition data an IterationInput node
// emits on the next Run. If key is non-nil the records are hash-partitioned
// by it; otherwise they are split contiguously. A non-positive parallelism
// (e.g. from a zero-value Config) is treated as 1.
func (e *Executor) SetPlaceholder(logicalID int, recs []record.Record, key record.KeyFunc, parallelism int) {
	if parallelism <= 0 {
		parallelism = 1
	}
	parts := make([][]record.Record, parallelism)
	if key != nil {
		// Count, then fill: one exact-size array carved into the
		// partitions instead of append-growing each of them.
		where := make([]int32, len(recs))
		counts := make([]int, parallelism)
		for i, r := range recs {
			p := record.PartitionOf(key(r), parallelism)
			where[i] = int32(p)
			counts[p]++
		}
		flat := make([]record.Record, len(recs))
		lo := 0
		for p, n := range counts {
			parts[p] = flat[lo : lo : lo+n]
			lo += n
		}
		for i, r := range recs {
			parts[where[i]] = append(parts[where[i]], r)
		}
	} else {
		per := (len(recs) + parallelism - 1) / parallelism
		for p := 0; p < parallelism; p++ {
			lo := p * per
			hi := lo + per
			if lo > len(recs) {
				lo = len(recs)
			}
			if hi > len(recs) {
				hi = len(recs)
			}
			parts[p] = recs[lo:hi]
		}
	}
	e.Placeholder[logicalID] = parts
}

// SetPlaceholderFolded is SetPlaceholder for data whose consumer reads
// only what fold — a combinable Reduce — leaves of each key: the records
// are hash-partitioned by fold.Keys[0] and folded per partition by the
// combiner fold a plan node runs (combineFold), so a partition holds the
// fold's output for each of its keys, in the fold's order: key order for
// a partition dense in its keys, first-touch order otherwise.
//
// An input of serialLaneRecords or more is split over up to GOMAXPROCS
// goroutines in two phases: each splits a contiguous chunk of recs by
// partition, then each folds its partitions' records chunk by chunk —
// input order, so the result is the serial pass's.
//
// All of it runs under the seed fold's labels for the lane it takes (a
// split is the parallel lane): set on the caller's goroutine, from which
// the split goroutines inherit them, and taken off on return (nothing
// above the runtime labels a goroutine, as on the serial lane).
func (e *Executor) SetPlaceholderFolded(logicalID int, recs []record.Record, parallelism int, fold *dataflow.Node) {
	parallelism = max(parallelism, 1)
	workers := min(parallelism, goruntime.GOMAXPROCS(0))
	split := workers > 1 && len(recs) >= serialLaneRecords
	labels := seedFoldSerial
	if split {
		labels = seedFoldParallel
	}
	pprof.SetGoroutineLabels(labels)
	defer pprof.SetGoroutineLabels(context.Background())
	for len(e.seedFolds) < parallelism {
		e.seedFolds = append(e.seedFolds, &combineFold{})
	}
	folds := e.seedFolds[:parallelism]
	for _, f := range folds {
		f.reset(fold)
	}
	key := fold.Keys[0]
	if !split {
		for _, r := range recs {
			folds[record.PartitionOf(key(r), parallelism)].Emit(r)
		}
	} else {
		chunks := make([][][]record.Record, workers) // chunk → partition → records
		inParallel(workers, func(w int) {
			chunk := recs[w*len(recs)/workers : (w+1)*len(recs)/workers]
			byPart := make([][]record.Record, parallelism)
			for p := range byPart { // an even share plus 1/8 for skew
				byPart[p] = make([]record.Record, 0, len(chunk)/parallelism+len(chunk)/(8*parallelism))
			}
			for _, r := range chunk {
				p := record.PartitionOf(key(r), parallelism)
				byPart[p] = append(byPart[p], r)
			}
			chunks[w] = byPart
		})
		inParallel(workers, func(w int) {
			for p := w; p < parallelism; p += workers {
				for _, byPart := range chunks {
					for _, r := range byPart[p] {
						folds[p].Emit(r)
					}
				}
			}
		})
	}
	parts := make([][]record.Record, parallelism)
	for p, f := range folds {
		parts[p] = make([]record.Record, 0, len(f.touched))
		f.flush(emitCollector{buf: &parts[p]})
	}
	e.Placeholder[logicalID] = parts
}

// seedFoldSerial and seedFoldParallel label SetPlaceholderFolded's
// passes: the op names the seed workset (W0) and its fold, the way a plan
// node absorbing the fold is named, but no plan node is called W0.
var (
	seedFoldSerial   = runtimeLabels("W0+best-combine", "serial")
	seedFoldParallel = runtimeLabels("W0+best-combine", "parallel")
)

// runtimeLabels returns the profiler labels a runtime pass runs under,
// {layer=runtime, op, lane}: lane is serial for a pass inline on the
// caller's goroutine, parallel for one on session workers or split
// goroutines. Sessions build them once per node, at open.
func runtimeLabels(op, lane string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("layer", "runtime", "op", op, "lane", lane))
}

// inParallel runs f(0) … f(n-1) on n goroutines and returns when all have.
func inParallel(n int, f func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// SetPlaceholderParts installs pre-partitioned data directly.
func (e *Executor) SetPlaceholderParts(logicalID int, parts [][]record.Record) {
	e.Placeholder[logicalID] = parts
}

// slot returns the cache slot for (node, input, part), creating it.
func (e *Executor) slot(n *optimizer.PhysNode, input, part int) *cacheSlot {
	k := slotKey{n.ID, input, part}
	s, ok := e.slots[k]
	if !ok {
		s = &cacheSlot{}
		e.slots[k] = s
	}
	return s
}

// slotsFilled reports whether all partitions of a cached input are filled.
func (e *Executor) slotsFilled(n *optimizer.PhysNode, input, parallelism int) bool {
	for p := 0; p < parallelism; p++ {
		s, ok := e.slots[slotKey{n.ID, input, p}]
		if !ok || !s.filled {
			return false
		}
	}
	return true
}

// slotsFilledAmong is slotsFilled restricted to the given partitions — a
// distributed session only ever fills (and therefore only checks) the
// slots of the partitions it hosts.
func (e *Executor) slotsFilledAmong(n *optimizer.PhysNode, input int, parts []int) bool {
	for _, p := range parts {
		s, ok := e.slots[slotKey{n.ID, input, p}]
		if !ok || !s.filled {
			return false
		}
	}
	return true
}

// CachedBytes is the serialized-form size of the loop-invariant inputs the
// executor holds: what Close drops and the next superstep of a
// new plan refills.
func (e *Executor) CachedBytes() int64 {
	var n int64
	for _, s := range e.slots {
		switch {
		case s.table != nil:
			n += int64(s.table.size()) * record.EncodedSize
		default:
			n += batchesBytes(s.batches) + int64(len(s.recs))*record.EncodedSize
		}
	}
	return n
}

// PatchSource edits the cached tables built from Source node src in place,
// so they hold src's records less remove plus add, without re-running the
// source, re-shipping its records or rebuilding a table — the constant data
// path's changes arrive as a delta, like the dynamic path's. Each record
// goes where the cached edge shipped it (ShipPartition: the partition of
// its key; ShipBroadcast: every partition), into the slots this executor
// has filled; a partition hosted elsewhere is its host's to patch. Every
// removed record must be in its table.
//
// It reports false and changes nothing when src cannot be patched: it
// reaches a consumer through a fused chain or as anything but the cached
// build side of a hash join, a slot is not filled (the next superstep
// would build it from src.Data), or a record to remove is missing. The
// cache generation does not move, so open sessions keep their wiring; and
// src.Data is not touched, so after a patch it no longer describes the
// table — whoever drops these caches must re-derive it first.
func (e *Executor) PatchSource(p *optimizer.PhysPlan, src *dataflow.Node, add, remove []record.Record) bool {
	par := max(p.Parallelism, 1)
	type target struct {
		edge  *optimizer.Edge
		key   record.KeyFunc // the table's group key
		slots []*cacheSlot   // by partition; nil when not hosted here
	}
	var targets []target
	for _, n := range p.Nodes {
		for i := range n.Inputs {
			in := &n.Inputs[i]
			if in.From.Logical != src {
				continue
			}
			if in.From.Role != optimizer.RoleOperator || len(in.From.FusedChain) > 0 || !in.Cache ||
				n.Local != optimizer.LocalHashJoin || n.BuildSide != i ||
				(in.Ship != optimizer.ShipPartition && in.Ship != optimizer.ShipBroadcast) {
				return false
			}
			t := target{edge: in, key: n.Logical.Keys[i], slots: make([]*cacheSlot, par)}
			hosted := false
			for part := range t.slots {
				s, ok := e.slots[slotKey{n.ID, i, part}]
				if !ok {
					continue
				}
				if !s.filled || s.table == nil {
					return false
				}
				t.slots[part], hosted = s, true
			}
			if !hosted {
				return false
			}
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return false
	}
	// each calls f with the table of every hosted slot r ships to.
	each := func(t target, r record.Record, f func(part int, g *groupTable)) {
		lo, hi := 0, par
		if t.edge.Ship == optimizer.ShipPartition {
			lo = record.PartitionOf(t.edge.Key(r), par)
			hi = lo + 1
		}
		for part := lo; part < hi; part++ {
			if s := t.slots[part]; s != nil {
				f(part, s.table)
			}
		}
	}

	// Every removal must find its record before anything changes.
	type claim struct {
		g *groupTable
		k int64
		r record.Record
	}
	need := make(map[claim]int)
	for _, t := range targets {
		for _, r := range remove {
			each(t, r, func(_ int, g *groupTable) { need[claim{g, t.key(r), r}]++ })
		}
	}
	for c, n := range need {
		for _, have := range c.g.get(c.k) {
			if have == c.r {
				n--
			}
		}
		if n > 0 {
			return false
		}
	}

	delta := int64(0) // records the hosted tables gain
	for _, t := range targets {
		for _, r := range remove {
			each(t, r, func(_ int, g *groupTable) {
				g.remove(t.key(r), r)
				delta--
			})
		}
		// Room up front for every group an addition relocates, so a large
		// patch grows recs once instead of doubling through it.
		room := make([]int, par)
		for _, r := range add {
			each(t, r, func(part int, g *groupTable) { room[part] += len(g.get(t.key(r))) + 1 })
		}
		for part, n := range room {
			if n > 0 {
				g := t.slots[part].table
				g.recs = slices.Grow(g.recs, n)
			}
		}
		for _, r := range add {
			each(t, r, func(_ int, g *groupTable) {
				g.add(t.key(r), r)
				delta++
			})
		}
		for _, s := range t.slots {
			if s != nil {
				s.table.compactIfSparse()
			}
		}
	}
	return true
}

// Result maps logical sink IDs to per-partition output records.
type Result map[int][][]record.Record

// Records flattens one sink's output.
func (r Result) Records(sinkID int) []record.Record {
	var out []record.Record
	for _, part := range r[sinkID] {
		out = append(out, part...)
	}
	return out
}

// Run executes the plan once and returns the sink outputs. It is the
// one-shot convenience form: a session is opened, run for a single
// superstep, and closed. Iteration drivers use OpenSession directly so
// workers, exchanges and batches persist across supersteps.
func (e *Executor) Run(p *optimizer.PhysPlan) (Result, error) {
	s := e.OpenSession(p)
	defer s.Close()
	return s.Run()
}
