package runtime

import "repro/internal/record"

// Placement assigns each partition to the index of the process hosting
// it. Placement is fixed at session open and survives reset() between
// supersteps: exchanges are keyed by stable edge IDs and rearmed, not
// rebuilt, so a session's wiring — including which partitions are remote —
// never changes mid-iteration.
type Placement []int

// ContiguousPlacement spreads par partitions over hosts processes in
// contiguous ranges: partition p lives on host p*hosts/par. Contiguous
// ranges keep each host's solution-set partitions, placeholder slices and
// sink outputs dense, and make the final solution assembly a plain
// concatenation in partition order.
func ContiguousPlacement(par, hosts int) Placement {
	pl := make(Placement, par)
	for p := range pl {
		pl[p] = p * max(hosts, 1) / par
	}
	return pl
}

// HostedBy returns the partitions placed on the given host, ascending.
func (pl Placement) HostedBy(host int) []int {
	var out []int
	for p, h := range pl {
		if h == host {
			out = append(out, p)
		}
	}
	return out
}

// Transport moves exchange traffic to partitions a session does not host.
// The in-memory MPSC queues remain the transport for hosted partitions —
// a session opened without a transport (OpenSession) hosts every
// partition and never leaves process memory, which is the default.
//
// A Transport instance carries exactly one session at a time: the session
// arms it with the exchanges of each superstep's schedule and disarms it
// at the superstep barrier, so inbound traffic racing a barrier parks in
// the transport until the next superstep's exchanges exist.
//
// Send and FinishProducer never block on consumers (the queues are
// unbounded dams); failures are absorbed, counted as TransportErrors,
// and surfaced through Err — the driver checks it after every superstep.
type Transport interface {
	// Hosted reports whether partition p executes in this process.
	Hosted(p int) bool
	// Send ships one batch to (edge, part) on the process hosting part.
	// The batch is serialized before Send returns; the caller recycles it.
	Send(edgeID, part int, b record.Batch)
	// FinishProducer announces to every peer that one of this process's
	// producer tasks for edgeID has finished (after all its Sends).
	FinishProducer(edgeID int)
	// Err returns the first transport failure, if any.
	Err() error

	// arm installs ex as the recipient of inbound traffic for its edge,
	// flushing anything that arrived while the session was between
	// supersteps. disarmAll detaches every exchange at the barrier.
	// Unexported: transports live in this package; sessions drive them.
	arm(ex *exchange)
	disarmAll()
}

// Rebinder is the optional Transport capability behind coordinated plan
// epochs: a re-optimized plan has a new edge-ID space, so before a fresh
// session opens on it, the transport's per-edge routing state must be
// re-sized to the new plan's edge count. Rebind may only be called while
// the transport is quiescent — the old session closed and every peer
// parked at the same epoch barrier — since in-flight traffic for old
// edge IDs would be misrouted under the new plan.
type Rebinder interface {
	Rebind(numEdges int)
}
