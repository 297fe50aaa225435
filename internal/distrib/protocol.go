// Package distrib runs one incremental iteration as a distributed
// session: N processes each host a contiguous partition range of the same
// physical plan, exchange traffic crosses process boundaries through the
// runtime's TCP transport, and a coordinator (always host 0) drives the
// superstep barrier. The control plane is a line of JSON messages per
// worker; the data plane is the transport's binary CRC32 frames — control
// traffic is rare and tiny, so readability wins there, while every
// superstep's records stay on the compact framed codec.
//
// Determinism is the load-bearing wall: every process builds the job's
// spec, graph, and physical plan locally from the same JobSpec (all
// generators are seeded, the optimizer is deterministic), and the
// coordinator verifies a digest of each worker's plan before any data
// flows. Identical plans mean identical dense node/edge IDs and identical
// superstep schedules, which is what lets the exchange layer route by
// (edge ID, partition) alone.
//
// Workers are not limited to batch jobs: a control message whose kind
// starts with "view_" hands the whole connection to the process's
// ViewHost, which runs a long-lived live-view maintenance session (the
// live tier's sharded serving mode) before returning the connection to
// this control loop. The same determinism rule applies there — each host
// re-derives the view's plan locally and the coordinator cross-checks
// digests.
package distrib

import "repro/internal/obs"

// JobSpec is the complete, self-contained description of a distributed
// run. Everything a process needs — graph, algorithm, plan options — is
// derived deterministically from these values, so shipping the spec is
// equivalent to shipping the plan.
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
	// BatchSize is the exchange batch size (0 = runtime default).
	BatchSize int `json:"batch_size,omitempty"`
	// Backend selects the solution-set index: "map", "compact", or ""
	// (compact).
	Backend string `json:"backend,omitempty"`
	// MaxSupersteps bounds the run (0 = 10000).
	MaxSupersteps int `json:"max_supersteps,omitempty"`
	// Reoptimize lets the coordinator re-plan mid-run when the workset
	// collapses far below the planned estimate. Each re-plan is a
	// coordinated plan epoch: the coordinator decides at the superstep
	// barrier, broadcasts the new epoch with the global workset size and
	// its new plan digest, and every worker re-plans locally, swaps its
	// session, and acknowledges with its own digest before the next
	// superstep is released. Determinism does the heavy lifting again —
	// all processes re-plan from the same estimate, so the digests must
	// agree, and the exchange layer keeps routing by (edge ID, partition)
	// in the new plan's ID space.
	Reoptimize bool `json:"reoptimize,omitempty"`
	// WireCompression asks every process to flate-compress its data-plane
	// record frames (Config.WireCompression); the receive path always
	// understands both message kinds, so it is purely a bandwidth/CPU
	// trade.
	WireCompression bool `json:"wire_compression,omitempty"`
	// TraceID groups the run's telemetry spans across every process: the
	// coordinator mints it (obs.NewTraceID) when it runs with a registry,
	// ships it here with the job assignment, and each process stamps it on
	// its spans and on every data-plane frame header (the transport
	// doubles it as a stale-peer check). Zero means untraced.
	TraceID uint64 `json:"trace_id,omitempty"`
}

func (js JobSpec) normalized() JobSpec {
	if js.Parallelism <= 0 {
		js.Parallelism = 2
	}
	if js.Hosts <= 0 {
		js.Hosts = 1
	}
	if js.MaxSupersteps <= 0 {
		js.MaxSupersteps = 10000
	}
	return js
}

// Control-plane message kinds, in protocol order.
const (
	// kindJob (coordinator → worker) assigns the job and the worker's
	// host ID.
	kindJob = "job"
	// kindReady (worker → coordinator) carries the worker's data-plane
	// address and its plan digest.
	kindReady = "ready"
	// kindStart (coordinator → worker) distributes every host's data
	// address; the worker meshes its transport and replies kindMeshed.
	kindStart  = "start"
	kindMeshed = "meshed"
	// kindStep (coordinator → worker) releases one superstep; the worker
	// replies kindStepDone with its local next-workset count. Both carry
	// the current plan epoch: a mismatch means a process missed (or
	// imagined) a plan swap and is rejected at the barrier, before its
	// traffic can be routed under the wrong plan.
	kindStep     = "step"
	kindStepDone = "step_done"
	// kindEpoch (coordinator → worker) announces a coordinated plan swap:
	// Epoch is the new epoch number, Count the global workset size to
	// re-plan for, Digest the coordinator's new plan digest. The worker
	// re-plans, swaps its session, and replies kindEpochDone with its own
	// digest — which must match, or the run aborts.
	kindEpoch     = "epoch"
	kindEpochDone = "epoch_done"
	// kindCollect (coordinator → worker) requests the worker's hosted
	// solution partitions; the reply kindSolution carries them as
	// concatenated record frames.
	kindCollect  = "collect"
	kindSolution = "solution"
	// kindStop (coordinator → worker) ends the job; the worker tears the
	// session down and waits for the next kindJob on the same connection.
	kindStop = "stop"
	// kindError (worker → coordinator) aborts the run.
	kindError = "error"
)

// ctlMsg is the single wire shape of every control message; Kind selects
// which fields are meaningful. JSON []byte fields travel base64-encoded,
// which keeps the framed solution payload lossless inside the text
// protocol.
type ctlMsg struct {
	Kind      string   `json:"kind"`
	Job       *JobSpec `json:"job,omitempty"`
	HostID    int      `json:"host_id,omitempty"`
	DataAddr  string   `json:"data_addr,omitempty"`
	DataAddrs []string `json:"data_addrs,omitempty"`
	Digest    string   `json:"digest,omitempty"`
	Count     int      `json:"count,omitempty"`
	// Epoch rides kindStep/kindStepDone (barrier-time staleness check) and
	// kindEpoch/kindEpochDone (the plan swap itself).
	Epoch  int    `json:"epoch,omitempty"`
	Frames []byte `json:"frames,omitempty"`
	// Spans rides the kindSolution reply: the worker's telemetry spans for
	// the job's trace ID, so the coordinator reassembles one cross-process
	// timeline (host IDs keep the origins apart).
	Spans []obs.Span `json:"spans,omitempty"`
	Err   string     `json:"err,omitempty"`
}
