package distrib

import (
	"sort"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

// RunSingle executes the same deterministic job on the plain
// single-process incremental driver and returns the result in the same
// canonical form as a multi-process run (live.RunJob). It is the oracle
// the differential harness compares distributed runs against: same
// JobSpec in, byte-identical Solution out.
func RunSingle(js JobSpec) (*Result, error) {
	js = js.Normalized()
	spec, s0, w0, err := BuildSpec(js)
	if err != nil {
		return nil, err
	}
	m := &metrics.Counters{}
	cfg := iterative.Config{
		Parallelism: js.Parallelism,
		Metrics:     m,
	}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		return nil, err
	}
	sol := res.Solution
	sort.Slice(sol, func(x, y int) bool { return record.Less(sol[x], sol[y]) })
	return &Result{Solution: sol, Supersteps: res.Supersteps, PlanEpochs: res.PlanEpochs, Work: m.Snapshot()}, nil
}

// EncodeSolution serializes a result's solution records back-to-back —
// the byte string two runs of the same job must agree on.
func EncodeSolution(sol []record.Record) []byte {
	out := make([]byte, 0, len(sol)*record.EncodedSize)
	for _, r := range sol {
		out = r.Encode(out)
	}
	return out
}
