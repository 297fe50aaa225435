package iterative_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/difftest"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// The planner audit. An incremental run with Reoptimize on plans its
// first superstep with the cost-based planner and every later re-plan —
// at a workset of at most 1/16 of the estimate the running plan was
// costed with — with the greedy one (PlannerAuto). A re-plan swaps the
// session, and refills the constant path's caches, exactly when the two
// planners disagree on the plan's shape. The audit lists, for every spec
// in internal/algorithms, both planners' shapes at the estimates a run
// re-plans at, and pins the two facts the re-plan path rests on: in one
// process CC and SSSP never swap, and a 2-host CC job on a dense core
// still does once.

// auditEstimates are the workset estimates a run can be planned with: the
// spec's own, then the first, second and last re-plan points.
func auditEstimates(initial int64) []int64 {
	return []int64{initial, max(initial/16, 1), max(initial/256, 1), 1}
}

// incrementalShapes returns the shortened fingerprints of spec's plans
// under cfg at each estimate.
func incrementalShapes(t *testing.T, spec iterative.IncrementalSpec, cfg iterative.Config, ests []int64) []string {
	t.Helper()
	saved := spec.Workset.EstRecords
	defer func() { spec.Workset.EstRecords = saved }()
	var out []string
	for _, est := range ests {
		spec.Workset.EstRecords = est
		phys, err := iterative.PlanIncremental(spec, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, phys.Fingerprint()[:8])
	}
	return out
}

// auditRow is one (spec, parallelism, hosts) cell of the audit.
type auditRow struct {
	spec        string
	par, hosts  int
	cost        []string // cost-based shapes at auditEstimates
	greedy      []string // greedy shapes at auditEstimates
	incremental bool
}

// swaps reports whether a run with Reoptimize on under PlannerAuto would
// swap its session: some greedy re-plan disagrees with the initial
// cost-based plan.
func (r auditRow) swaps() bool {
	if !r.incremental {
		return false
	}
	for _, g := range r.greedy[1:] {
		if g != r.cost[0] {
			return true
		}
	}
	return false
}

func (r auditRow) String() string {
	verdict := "no re-plan"
	if r.incremental {
		verdict = "keeps its plan"
		if r.swaps() {
			verdict = "swaps"
		}
	}
	return fmt.Sprintf("| %s | %d | %d | %s | %s | %s |", r.spec, r.par, r.hosts,
		strings.Join(r.cost, " "), strings.Join(r.greedy, " "), verdict)
}

// auditGraphs are the graph shapes the graph specs are audited on: the
// dense R-MAT core of the cc-powerlaw benchmark (scaled down), a chain of
// small communities (cc-longtail's shape), and the near-complete core with
// a long tail of the distributed CC re-optimization job.
func auditGraphs() []*graphgen.Graph {
	return []*graphgen.Graph{
		graphgen.RMAT("rmat", 10, 40_000, 0.57, 0.19, 0.19, 3).WithDiameterTail(12, 0),
		graphgen.ChainedCommunities("chain", 60, 32, 24, 5),
		graphgen.Uniform("core+tail", 200, 30000, 0xE90C).WithDiameterTail(50, 0),
	}
}

func auditIncremental(t *testing.T) []auditRow {
	var rows []auditRow
	for _, g := range auditGraphs() {
		cog, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
		match, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
		sssp, _, _ := algorithms.SSSPSpec(difftest.UnitWeights(g), 0)
		for _, c := range []struct {
			name string
			spec iterative.IncrementalSpec
		}{{"cc-cogroup", cog}, {"cc-match", match}, {"sssp", sssp}} {
			ests := auditEstimates(c.spec.Workset.EstRecords)
			for _, par := range []int{1, 2, 4} {
				for _, hosts := range []int{1, 2} {
					if hosts > par {
						continue
					}
					cfg := iterative.Config{Parallelism: par, Hosts: hosts, Planner: optimizer.PlannerCost}
					cost := incrementalShapes(t, c.spec, cfg, ests)
					cfg.Planner = optimizer.PlannerGreedy
					rows = append(rows, auditRow{spec: c.name + "/" + g.Name, par: par, hosts: hosts,
						cost: cost, greedy: incrementalShapes(t, c.spec, cfg, ests), incremental: true})
				}
			}
		}
	}
	return rows
}

// bulkShape plans spec with the options RunBulk plans it with and
// returns the plan's shortened fingerprint.
func bulkShape(t *testing.T, spec iterative.BulkSpec, initial []record.Record, par int, planner optimizer.PlannerKind) string {
	t.Helper()
	saved := spec.Input.EstRecords
	defer func() { spec.Input.EstRecords = saved }()
	if saved == 0 {
		spec.Input.EstRecords = int64(len(initial))
	}
	expected := spec.FixedIterations
	if expected <= 0 {
		expected = 10
	}
	phys, err := optimizer.Optimize(spec.Plan, optimizer.Options{
		Parallelism:        par,
		ExpectedIterations: expected,
		Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		JoinHints:          spec.JoinHints,
		Planner:            planner,
		Fuse:               true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return phys.Fingerprint()[:8]
}

// auditBulk plans the bulk specs, which are planned once and never
// re-planned, with both planners: small inputs, plus PageRank at the
// sizes of the pagerank-bulk benchmark (65 536 vertices, 730 000 edges,
// 20 iterations).
func auditBulk(t *testing.T) []auditRow {
	g := graphgen.RMAT("rmat-small", 8, 2_000, 0.57, 0.19, 0.19, 3)
	pagerank, ranks := algorithms.PageRankSpec(g, 4, algorithms.DefaultDamping, 0)
	benchSized, benchRanks := algorithms.PageRankSpec(graphgen.Uniform("65k×730k", 65_536, 730_000, 3),
		20, algorithms.DefaultDamping, 0)
	cc, labels := algorithms.CCBulkSpec(g)

	// bulkShape must plan what RunBulk runs.
	res, err := iterative.RunBulk(pagerank, ranks, iterative.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := bulkShape(t, pagerank, ranks, 2, optimizer.PlannerAuto); got != res.Plan.Fingerprint()[:8] {
		t.Fatalf("bulkShape planned %s, RunBulk ran %s", got, res.Plan.Fingerprint()[:8])
	}

	var rows []auditRow
	for _, c := range []struct {
		name    string
		spec    iterative.BulkSpec
		initial []record.Record
	}{
		{"pagerank/" + g.Name, pagerank, ranks}, {"pagerank/65k×730k", benchSized, benchRanks},
		{"cc-bulk/" + g.Name, cc, labels},
	} {
		for _, par := range []int{1, 2, 4} {
			rows = append(rows, auditRow{spec: c.name, par: par, hosts: 1,
				cost:   []string{bulkShape(t, c.spec, c.initial, par, optimizer.PlannerCost)},
				greedy: []string{bulkShape(t, c.spec, c.initial, par, optimizer.PlannerGreedy)}})
		}
	}
	return rows
}

// TestPlannerAudit prints the audit table (go test -v) and pins what the
// re-plan path rests on.
func TestPlannerAudit(t *testing.T) {
	rows := append(auditIncremental(t), auditBulk(t)...)
	var b strings.Builder
	b.WriteString("| spec/graph | P | hosts | cost shapes (est, ÷16, ÷256, 1) | greedy shapes | Reoptimize under PlannerAuto |\n")
	b.WriteString("| --- | --- | --- | --- | --- | --- |\n")
	for _, r := range rows {
		b.WriteString(r.String() + "\n")
	}
	t.Log("planner audit\n" + b.String())

	for _, r := range rows {
		name := strings.SplitN(r.spec, "/", 2)[0]
		cc := name == "cc-cogroup" || name == "cc-match"
		switch {
		case r.hosts == 1 && (cc || name == "sssp") && r.swaps():
			t.Errorf("%s P%d: a single-process run would swap plans mid-run (cost %v, greedy %v)",
				r.spec, r.par, r.cost, r.greedy)
		case cc && r.hosts == 2 && r.par == 2 && strings.HasSuffix(r.spec, "/core+tail") && !r.swaps():
			t.Errorf("%s P2 on 2 hosts no longer swaps plans mid-run: no shipped job takes the re-plan "+
				"path's swap any more, so its tests lost their traffic", r.spec)
		}
	}
}
