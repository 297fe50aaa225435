// Package obs is the telemetry plane: structured phase spans, fixed-bucket
// latency histograms, and an export surface (Prometheus text, expvar-style
// JSON, pprof) shared by the runtime, the iterative drivers, the live
// serving tier, and distributed sessions.
//
// The design constraints come from the hot path it observes:
//
//   - Spans are fixed-size values recorded into a pre-allocated ring
//     (Ring); recording allocates nothing and a nil TraceSink costs one
//     branch, so instrumented code paths stay benchmark-neutral when
//     telemetry is off.
//   - Histograms use power-of-two nanosecond buckets updated with atomics,
//     so parallel workers record concurrently with a /metrics scrape
//     without coordination; quantiles (p50/p90/p99) are extracted from a
//     snapshot by interpolating within the hit bucket.
//   - Everything hangs off a Registry, which renders the whole state as
//     Prometheus text (GET /metrics), JSON (GET /debug/vars), and serves
//     net/http/pprof — one Handler wired by `spinflow serve
//     -telemetry-addr` and `spinflow worker -telemetry-addr`.
//
// Spans carry a TraceID so one distributed run's spans — produced by N
// worker processes — reassemble into a single timeline: the coordinator
// stamps the trace ID into the job spec and the data-plane frame headers,
// every process records against it, and `spinflow trace` merges the
// collected spans (see Timeline).
package obs

import (
	"fmt"
	"sync"
	"time"
)

// TraceID identifies one logical run (a job, a view's lifetime, a
// distributed session) across processes. Zero means untraced.
type TraceID uint64

// traceCounter distinguishes trace IDs minted within one nanosecond.
var (
	traceMu      sync.Mutex
	traceCounter uint64
)

// NewTraceID mints a process-unique trace ID. IDs from different processes
// are distinct with overwhelming probability (wall-clock nanoseconds mixed
// with a counter through a 64-bit finalizer), which is all reassembly
// needs — in distributed runs only the coordinator mints, and every worker
// adopts its ID.
func NewTraceID() TraceID {
	traceMu.Lock()
	traceCounter++
	seed := uint64(time.Now().UnixNano()) + traceCounter<<1
	traceMu.Unlock()
	// SplitMix64 finalizer: spreads the low-entropy seed over all 64 bits.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return TraceID(z)
}

// String renders the trace ID as fixed-width hex.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// Phase classifies what a span measured.
type Phase uint8

// The instrumented phases, one per hot-path stage worth explaining after
// the fact.
const (
	// PhaseSuperstep covers one Session.Run: every live task fired,
	// executed, and joined at the barrier.
	PhaseSuperstep Phase = iota
	// PhaseOperator covers one (node, partition) task within a superstep.
	PhaseOperator
	// PhaseShip covers time spent serializing and writing exchange batches
	// to remote peers (distributed sessions; zero in-process).
	PhaseShip
	// PhaseMerge covers the post-superstep S ∪̇ D solution-set merge.
	PhaseMerge
	// PhasePlan covers one optimizer invocation (initial or re-plan).
	PhasePlan
	// PhaseFlush covers one live-view maintenance flush (mutation batch →
	// workset deltas → warm restart to fixpoint).
	PhaseFlush
	// PhaseWALAppend covers one write-ahead-log append + fsync.
	PhaseWALAppend
	// PhaseSnapshot covers one streaming solution-set snapshot.
	PhaseSnapshot
	// PhaseBarrier covers coordinator-side barrier waits in distributed
	// runs: from releasing a superstep to the last worker's step_done.
	PhaseBarrier
	// PhaseRound covers one control round of a live-view session,
	// labelled with its verb: in a flush apply (graph mutation and settle,
	// any overlay fold included), replan, gather or seed; outside one
	// mesh, load or plan epoch.
	PhaseRound

	numPhases
)

var phaseNames = [numPhases]string{
	"superstep", "operator", "ship", "merge", "plan",
	"flush", "wal-append", "snapshot", "barrier", "round",
}

// String names the phase (also its JSON form).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Span is one completed, timed occurrence of a phase. Spans are plain
// values — no pointers, no allocation on record — and small enough that a
// default ring holds thousands without noticeable memory.
type Span struct {
	// Trace groups the spans of one logical run across processes.
	Trace TraceID `json:"trace"`
	// Host is the recording process's host ID (0 single-process).
	Host int32 `json:"host"`
	// Part is the partition the span belongs to, or -1 when the phase is
	// not partition-scoped.
	Part int32 `json:"part"`
	// Step is the superstep index the span belongs to, or -1.
	Step int32 `json:"step"`
	// Phase classifies the measured stage.
	Phase Phase `json:"phase"`
	// Start is the span's start time in Unix nanoseconds.
	Start int64 `json:"start"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur"`
	// Label names the measured thing: an operator, a view, a scenario.
	// Callers pass compile-time constants or long-lived names, so recording
	// does not allocate.
	Label string `json:"label,omitempty"`
}

// TraceSink receives completed spans. A nil sink disables tracing at the
// cost of one branch per would-be span; Ring is the standard
// implementation.
type TraceSink interface {
	RecordSpan(Span)
}

// Ring is a fixed-capacity span buffer: recording overwrites the oldest
// span once full, so a week-old live view holds the last N spans, not a
// week of them. Safe for concurrent recording and snapshotting.
type Ring struct {
	mu    sync.Mutex
	buf   []Span
	next  uint64 // total spans ever recorded; next%cap is the write slot
	limit int
}

// DefaultRingSpans is the span capacity used when none is given.
const DefaultRingSpans = 4096

// NewRing creates a ring holding the last `capacity` spans
// (DefaultRingSpans if capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSpans
	}
	return &Ring{buf: make([]Span, 0, capacity), limit: capacity}
}

// RecordSpan implements TraceSink.
func (r *Ring) RecordSpan(s Span) {
	r.mu.Lock()
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next%uint64(r.limit)] = s
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of retained spans.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many spans have been overwritten by later ones.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(r.limit) {
		return 0
	}
	return int64(r.next - uint64(r.limit))
}

// Spans returns the retained spans, oldest first.
func (r *Ring) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < r.limit {
		return append(out, r.buf...)
	}
	head := int(r.next % uint64(r.limit))
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// SpansFor returns the retained spans of one trace, oldest first.
func (r *Ring) SpansFor(t TraceID) []Span {
	all := r.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Trace == t {
			out = append(out, s)
		}
	}
	return out
}
