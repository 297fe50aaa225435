package live

import (
	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

// jobMaintainer is the maintainer behind a one-shot job session. Its spec
// comes from distrib.BuildSpec — on every host, and on the RunSingle
// oracle — rather than from a shipped graph replica: GraphState
// symmetrizes weights to the minimum per vertex pair and sorts the edge
// table, while the oracle's per-orientation weights and edge order (and
// the estimates that decide where plan epochs fall) must be reproduced
// exactly. A job is never mutated, so the maintenance hooks have nothing
// to do.
type jobMaintainer struct {
	js     distrib.JobSpec
	spec   iterative.IncrementalSpec
	s0, w0 []record.Record
}

func newJobMaintainer(js distrib.JobSpec) (Maintainer, error) {
	spec, s0, w0, err := distrib.BuildSpec(js)
	if err != nil {
		return nil, err
	}
	return jobMaintainer{js: js, spec: spec, s0: s0, w0: w0}, nil
}

func (j jobMaintainer) Name() string { return j.js.Algorithm }

func (j jobMaintainer) Spec(*GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	return j.spec, j.s0, j.w0
}

func (jobMaintainer) PairRecords(dst []record.Record, _ []WEdge) []record.Record { return dst }

func (jobMaintainer) InsertDelta(int64, int64, float64, SolutionReader) []record.Record { return nil }

func (jobMaintainer) VertexRecord(int64) (record.Record, bool) { return record.Record{}, false }

func (jobMaintainer) DeleteRegion(*GraphState, []WEdge, []WEdge) ([]int64, bool) {
	return nil, false
}

func (jobMaintainer) RecomputeSeed(*GraphState, []int64) ([]record.Record, []record.Record, []int64) {
	return nil, nil, nil
}

// RunJob executes js as a one-shot sharded session: this process is host 0
// (the coordinator, hosting the first partition range) and each
// workerAddrs entry is the control address of an already-listening worker
// process (hosts 1..N; none runs the whole job here). It is the life of a
// sharded view cut short — open the session on the workers (plan
// fingerprints cross-checked, data plane meshed), drive the cold fixpoint
// through the session barrier, collect every host's partitions, hang up —
// so a job gets exactly the coordination a view gets, plan epochs
// included when js.Reoptimize is set.
//
// With a registry the coordinator mints a trace ID (unless js carries
// one), every host records its superstep/operator/ship spans under it,
// each barrier round adds a distrib_step_rtt sample, and the workers'
// spans come back with their partitions — so reg's ring ends up holding
// the whole run's timeline, which Result.Spans returns. A nil registry
// leaves the run untraced.
func RunJob(js distrib.JobSpec, workerAddrs []string, reg *obs.Registry) (*distrib.Result, error) {
	js = js.Normalized()
	js.Hosts = 1 + len(workerAddrs)
	if reg != nil && js.TraceID == 0 {
		js.TraceID = uint64(obs.NewTraceID())
	}
	m, err := newJobMaintainer(js)
	if err != nil {
		return nil, err
	}
	// With a registry the run records into its shared counters, so they
	// stay scrapeable beside whatever else it serves; Result.Work is the
	// run's own delta either way.
	work := &metrics.Counters{}
	if reg != nil {
		work = reg.Counters()
	}
	before := work.Snapshot()
	cfg := ViewConfig{Workers: workerAddrs}
	cfg.Config = iterative.Config{
		Parallelism: js.Parallelism,
		Metrics:     work,
	}
	if reg != nil {
		cfg.Obs, cfg.TraceID, cfg.TraceLabel = reg, obs.TraceID(js.TraceID), js.Algorithm
	}
	v := &LiveView{name: "job-" + js.Algorithm, m: m, cfg: cfg, gs: NewGraphState()}
	v.bindObs()
	s, cold, err := openSession(v, false)
	if err != nil {
		return nil, err
	}
	res := &distrib.Result{}
	if cold != nil {
		res.Supersteps, res.PlanEpochs = cold.Supersteps, cold.PlanEpochs
	}
	res.Solution, err = s.Snapshot()
	// Taken before the hang-up: a peer tearing its transport down is not a
	// transport error of the run.
	res.Work = work.Snapshot().Sub(before)
	s.hangUp()
	if err != nil {
		return nil, err
	}
	if reg != nil {
		res.Spans = reg.Trace().SpansFor(obs.TraceID(js.TraceID))
	}
	return res, nil
}
