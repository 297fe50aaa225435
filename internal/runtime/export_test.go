package runtime

import (
	"repro/internal/dataflow"
	"repro/internal/optimizer"
)

// ForceLane pins the lane every transport-less session takes until the
// returned restore function runs: pick is asked once per superstep and
// returns true for the serial lane. Tests only.
func ForceLane(pick func() (serial bool)) (restore func()) {
	laneOverride = pick
	return func() { laneOverride = nil }
}

// Idle reports whether n's task does no per-record work in a superstep of
// p: n is a placeholder or Source whose every consumer borrows it, or a
// sink whose producer writes into it. Tests only.
func Idle(p *optimizer.PhysPlan, n *optimizer.PhysNode) bool {
	if n.Logical.Contract == dataflow.Sink {
		return intoSink(n, &n.Inputs[0], max(p.Parallelism, 1))
	}
	read := false
	for _, c := range p.Nodes {
		for i := range c.Inputs {
			if e := &c.Inputs[i]; e.From == n {
				read = true
				if !borrowed(c, e, max(p.Parallelism, 1)) {
					return false
				}
			}
		}
	}
	return read
}
