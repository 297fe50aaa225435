package distrib

import (
	"fmt"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// buildGraph derives the job's graph. The generators are fully seeded, so
// every process reconstructs the identical edge list.
func buildGraph(js JobSpec) (*graphgen.Graph, error) {
	switch js.GraphKind {
	case "", "uniform":
		return graphgen.Uniform("distrib-uniform", js.GraphN, js.GraphM, js.Seed), nil
	case "uniform-tail":
		return graphgen.Uniform("distrib-uniform-tail", js.GraphN, js.GraphM, js.Seed).
			WithDiameterTail(js.GraphN/4, 0), nil
	case "pa":
		m := int(js.GraphM / max64(1, js.GraphN))
		if m < 1 {
			m = 1
		}
		return graphgen.PreferentialAttachment("distrib-pa", js.GraphN, m, js.Seed), nil
	}
	return nil, fmt.Errorf("distrib: unknown graph kind %q", js.GraphKind)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// distWeight is the deterministic SSSP edge weight: a small integer
// derived from the endpoints, exact in float64, so path sums — and
// therefore the converged solution bytes — are identical on every process
// and every run.
func distWeight(src, dst int64) float64 {
	return float64(1 + (src*7+dst*13)%4)
}

// buildSpec derives the job's incremental spec, initial solution, and
// initial workset from the JobSpec.
func buildSpec(js JobSpec) (iterative.IncrementalSpec, []record.Record, []record.Record, error) {
	var (
		spec   iterative.IncrementalSpec
		s0, w0 []record.Record
	)
	g, err := buildGraph(js)
	if err != nil {
		return spec, nil, nil, err
	}
	switch js.Algorithm {
	case "cc":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	case "cc-cogroup":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	case "sssp":
		und := g.Undirected()
		edges := make([]algorithms.WeightedEdge, len(und.Edges))
		for i, e := range und.Edges {
			edges[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: distWeight(e.Src, e.Dst)}
		}
		spec, s0, w0 = algorithms.SSSPSpec(edges, js.Source)
	default:
		return spec, nil, nil, fmt.Errorf("distrib: unknown algorithm %q", js.Algorithm)
	}
	// The same bounds and re-planning policy on every process — and on
	// the single-process oracle, which runs the identical spec.
	spec.MaxSupersteps = js.MaxSupersteps
	spec.Reoptimize = js.Reoptimize
	return spec, s0, w0, nil
}

// job is one process's share of a distributed run: the locally derived
// plan, the transport meshed with the peers, and a resident Fixpoint
// hosting this process's partition range. The coordinator drives its
// job's Fixpoint through the shared superstep driver (RunDriven with a
// barrier and an epoch hook); workers drive theirs one StepOnce — or one
// ApplyEpoch — per control message.
type job struct {
	js    JobSpec
	spec  iterative.IncrementalSpec
	cfg   iterative.Config
	phys  *optimizer.PhysPlan
	place runtime.Placement
	m     *metrics.Counters
	reg   *obs.Registry
	tr    *runtime.TCPTransport
	sol   *runtime.SolutionSet
	fx    *iterative.Fixpoint
	w0    []record.Record
	// digest fingerprints the plan the session currently executes; epoch
	// counts the coordinated plan swaps this process has applied. Both
	// advance together at a plan-epoch bump.
	digest string
	epoch  int
	host   int
}

// newJob builds everything up to — but not including — the peer mesh: the
// deterministic spec and plan, the solution set initialized with S0, and
// the transport listening on addr. The Fixpoint (and its session) opens
// in open(), after the mesh exists.
//
// A non-nil registry turns telemetry on: supersteps and operators record
// spans under the job's trace ID with this process's host ID, and the
// transport stamps the trace ID into frame headers and times its sends.
func newJob(js JobSpec, hostID int, listenAddr string, reg *obs.Registry) (*job, string, error) {
	js = js.normalized()
	spec, s0, w0, err := buildSpec(js)
	if err != nil {
		return nil, "", err
	}
	m := &metrics.Counters{}
	cfg := iterative.Config{
		Parallelism:     js.Parallelism,
		BatchSize:       js.BatchSize,
		Hosts:           js.Hosts,
		Metrics:         m,
		WireCompression: js.WireCompression,
	}
	if reg != nil {
		cfg.Obs = reg
		cfg.TraceID = obs.TraceID(js.TraceID)
		cfg.TraceLabel = js.Algorithm
		cfg.Host = hostID
		reg.SetCounters(m)
	}
	if js.Backend != "" {
		cfg.SolutionBackend = runtime.SolutionBackendKind(js.Backend)
	}
	phys, err := iterative.PlanIncremental(spec, cfg, spec.ExpectedIterations)
	if err != nil {
		return nil, "", err
	}

	sol := runtime.NewSolutionSetWith(js.Parallelism, spec.SolutionKey, spec.Comparator, m,
		runtime.SolutionOptions{Backend: cfg.SolutionBackend})
	sol.Init(s0)

	j := &job{
		js: js, spec: spec, cfg: cfg, phys: phys, m: m, reg: reg,
		sol: sol, w0: w0,
		place:  runtime.ContiguousPlacement(js.Parallelism, js.Hosts),
		digest: phys.Fingerprint(),
		host:   hostID,
	}
	j.tr = runtime.NewTCPTransport(hostID, j.place, phys.NumEdges, m)
	j.tr.SetCompression(cfg.WireCompression)
	if reg != nil {
		j.tr.SetObs(obs.TraceID(js.TraceID), reg.Histogram("transport_send_duration"))
	}
	addr, err := j.tr.Listen(listenAddr)
	if err != nil {
		return nil, "", err
	}
	return j, addr, nil
}

// open meshes the transport with the peers and opens the hosted Fixpoint
// on it. The working set is not seeded here: workers seed their share
// explicitly, the coordinator seeds through RunDriven.
func (j *job) open(dataAddrs []string) error {
	if err := j.tr.ConnectPeers(dataAddrs, MeshTimeout); err != nil {
		j.tr.Close()
		return err
	}
	fx, err := iterative.OpenFixpointOn(j.spec, j.sol, j.cfg, j.phys, j.tr)
	if err != nil {
		j.tr.Close()
		return err
	}
	j.fx = fx
	return nil
}

// applyEpoch re-plans for the coordinator's global workset estimate and
// swaps the session onto the new plan, advancing this process's plan
// epoch. The returned digest must match the coordinator's.
func (j *job) applyEpoch(epoch int, est int64) (string, error) {
	phys, err := j.fx.ApplyEpoch(est)
	if err != nil {
		return "", err
	}
	j.phys = phys
	j.digest = phys.Fingerprint()
	j.epoch = epoch
	return j.digest, nil
}

// collect serializes the hosted partitions of the solution set, one frame
// per partition in ascending partition order.
func (j *job) collect(hostID int) []byte {
	var out []byte
	for _, p := range j.place.HostedBy(hostID) {
		var b record.Batch
		j.sol.EachPartition(p, func(r record.Record) {
			b = append(b, r)
		})
		// Within a partition the backend's iteration order is not
		// canonical; sort so repeated runs produce identical bytes.
		sort.Slice(b, func(x, y int) bool { return record.Less(b[x], b[y]) })
		out = record.AppendFrame(out, b)
	}
	return out
}

// close releases the session, transport, and executor. The solution set
// stays readable (collect may have already run).
func (j *job) close() {
	if j.fx != nil {
		j.fx.Close()
	}
	j.tr.Close()
}
