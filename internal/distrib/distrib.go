// Package distrib holds what a multi-process run needs that is not the
// protocol itself: the JobSpec describing a batch fixpoint and the Result
// it produces, the deterministic spec derivation (BuildSpec) with its
// single-process oracle (RunSingle), the bounded-backoff worker dial, and
// the worker listener.
//
// There is one multi-host protocol in the tree and it lives in
// internal/live: a sharded maintenance session (view_open → view_start →
// coordinator-driven verbs → hang-up) over one framed control connection
// per worker and the runtime's TCP data plane. A distributed job is that
// session run once — live.RunJob opens it on the workers, drives the cold
// fixpoint through the session barrier, collects every host's partitions
// and hangs up — so this package's listener only accepts control
// connections and hands each one, undecoded, to the process's ViewHost.
//
// Determinism is the load-bearing wall: every host derives the job's
// spec, graph and physical plan locally from the same JobSpec (all
// generators are seeded, the optimizer is deterministic), and the
// coordinator verifies each worker's plan fingerprint before any data
// flows and again at every coordinated plan epoch. Identical plans mean
// identical dense node/edge IDs and identical superstep schedules, which
// is what lets the exchange layer route by (edge ID, partition) alone.
package distrib

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

// JobSpec is the complete, self-contained description of a distributed
// run. Everything a process needs — graph, algorithm, plan options — is
// derived deterministically from these values, so shipping the spec is
// equivalent to shipping the plan. The run's superstep budget is the
// iteration's own default (10000 supersteps).
type JobSpec struct {
	// Algorithm: "cc" (CC via Match), "cc-cogroup" (CC via CoGroup), or
	// "sssp".
	Algorithm string `json:"algorithm"`
	// GraphKind: "uniform", "pa" (preferential attachment), or
	// "uniform-tail" — a uniform graph with a path of GraphN/4 extra
	// vertices hanging off vertex 0. A dense core with a long tail is the
	// input whose workset collapses while the run still has supersteps to
	// go, so mid-run re-optimization changes the physical plan's shape.
	GraphKind string `json:"graph_kind"`
	// GraphN and GraphM are the vertex and edge counts; Seed feeds the
	// deterministic generator.
	GraphN int64  `json:"graph_n"`
	GraphM int64  `json:"graph_m"`
	Seed   uint64 `json:"seed"`
	// Source is the SSSP source vertex.
	Source int64 `json:"source,omitempty"`
	// Parallelism is the plan's partition count; Hosts the process count.
	// Partitions map to hosts with runtime.ContiguousPlacement.
	Parallelism int `json:"parallelism"`
	Hosts       int `json:"hosts"`
	// Reoptimize lets the coordinator re-plan mid-run when the workset
	// collapses far below the planned estimate. A re-plan that changes the
	// physical shape is a coordinated plan epoch of the session barrier:
	// every host re-plans from the same global estimate, swaps its
	// session, and acknowledges with its plan fingerprint before the next
	// superstep is released.
	Reoptimize bool `json:"reoptimize,omitempty"`
	// TraceID groups the run's telemetry spans across every process: the
	// coordinator mints it (obs.NewTraceID) when it runs with a registry,
	// ships it here with the job assignment, and each process stamps it on
	// its spans and on every data-plane frame header (the transport
	// doubles it as a stale-peer check). Zero means untraced.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Normalized fills the defaults every host must agree on (parallelism 2,
// one host).
func (js JobSpec) Normalized() JobSpec {
	if js.Parallelism <= 0 {
		js.Parallelism = 2
	}
	if js.Hosts <= 0 {
		js.Hosts = 1
	}
	return js
}

// Result is the outcome of a job, as seen by the process that ran it.
type Result struct {
	// Solution is the converged solution set assembled from every
	// process's hosted partitions, in canonical (record.Less) order —
	// the byte-comparable form the differential harness checks.
	Solution []record.Record
	// Supersteps is the number of barrier rounds to the fixpoint.
	Supersteps int
	// PlanEpochs is how many coordinated mid-run re-optimizations the run
	// applied (JobSpec.Reoptimize only).
	PlanEpochs int
	// Work is the coordinator process's counter snapshot (remote batches
	// and bytes measure only host 0's share of the shuffle).
	Work metrics.Snapshot
	// Spans is the run's reassembled cross-process trace (runs with a
	// telemetry registry only): the coordinator's own spans plus every
	// worker's, all under one trace ID, distinguishable by Span.Host.
	Spans []obs.Span
}
