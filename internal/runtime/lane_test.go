package runtime_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/difftest"
	"repro/internal/distrib"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

// laneRun is what one fixpoint leaves behind for the lane differential.
type laneRun struct {
	solution []record.Record // sorted
	steps    int
	work     metrics.Snapshot
}

// laneJob is one iteration the differential runs on each lane.
type laneJob struct {
	name string
	// At Parallelism > 1 the order in which a consumer's producers deliver
	// their batches races on the parallel lane itself, so what depends on it
	// is compared at Parallelism 1 only:
	// racyWork — superstep counts and work counters (DirectMerge flows: how
	// many candidates a superstep accepts depends on which arrives first;
	// the fixpoint does not);
	// racyBits — the solution's float bits (PageRank's sums).
	racyWork, racyBits bool
	run                func(cfg iterative.Config) (laneRun, error)
}

func incrementalJob(name string, spec iterative.IncrementalSpec, s0, w0 []record.Record) laneJob {
	_, err := iterative.ValidateMicrostep(spec)
	return laneJob{name: name, racyWork: err == nil, run: func(cfg iterative.Config) (laneRun, error) {
		res, err := iterative.RunIncremental(spec, s0, w0, cfg)
		if err != nil {
			return laneRun{}, err
		}
		res.Set.Reset() // releases the spill backend's files
		return laneRun{solution: res.Solution, steps: res.Supersteps}, nil
	}}
}

func bulkJob(name string, spec iterative.BulkSpec, initial []record.Record) laneJob {
	return laneJob{name: name, racyWork: true, racyBits: true, run: func(cfg iterative.Config) (laneRun, error) {
		res, err := iterative.RunBulk(spec, initial, cfg)
		if err != nil {
			return laneRun{}, err
		}
		return laneRun{solution: res.Solution, steps: res.Iterations}, nil
	}}
}

// runOnLane runs job with every superstep's lane chosen by pick.
func runOnLane(t *testing.T, job laneJob, cfg iterative.Config, pick func() bool) laneRun {
	t.Helper()
	defer runtime.ForceLane(pick)()
	var m metrics.Counters
	cfg.Metrics = &m
	out, err := job.run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", job.name, err)
	}
	sort.Slice(out.solution, func(i, j int) bool { return record.Less(out.solution[i], out.solution[j]) })
	out.work = m.Snapshot()
	return out
}

// sameFixpoint compares two runs' solutions: bit for bit when exact, else
// to a relative 1e-12 on the float field.
func sameFixpoint(t *testing.T, what string, a, b laneRun, exact bool) {
	t.Helper()
	if len(a.solution) != len(b.solution) {
		t.Fatalf("%s: %d vs %d solution records", what, len(a.solution), len(b.solution))
	}
	for i, ra := range a.solution {
		rb := b.solution[i]
		same := ra == rb
		if !exact {
			same = ra.A == rb.A && ra.B == rb.B && math.Abs(ra.X-rb.X) <= 1e-12*math.Abs(ra.X)
		}
		if !same {
			t.Fatalf("%s: record %d: %v vs %v", what, i, ra, rb)
		}
	}
}

func serialLane() bool   { return true }
func parallelLane() bool { return false }

// alternatingLanes switches lane on every superstep.
func alternatingLanes() func() bool {
	serial := false
	return func() bool { serial = !serial; return serial }
}

// TestLaneDifferential: the serial and the parallel lane run the same
// tasks, so every iteration reaches the same fixpoint on either — and,
// where delivery order cannot matter, in the same number of supersteps
// with the same work counted.
func TestLaneDifferential(t *testing.T) {
	g := graphgen.Uniform("lanes", 300, 700, 5).WithDiameterTail(12, 0)
	ccCoGroup, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	ccMatch, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	sssp, ssspS0, ssspW0 := algorithms.SSSPSpec(difftest.UnitWeights(g), 0)
	pagerank, ranks := algorithms.PageRankSpec(g, 8, algorithms.DefaultDamping, 0)

	backends := []struct {
		name   string
		budget int64
	}{
		{"compact", 0},
		{"spill", 2048}, // a few partitions' worth
	}
	type cell struct {
		job     laneJob
		cfg     iterative.Config
		backend string
	}
	var cells []cell
	for _, par := range []int{1, 4} {
		for _, bk := range backends {
			cfg := iterative.Config{Parallelism: par, SolutionMemoryBudget: bk.budget}
			cells = append(cells,
				cell{incrementalJob("cc-cogroup", ccCoGroup, s0, w0), cfg, bk.name},
				cell{incrementalJob("cc-match", ccMatch, s0, w0), cfg, bk.name},
				cell{incrementalJob("sssp", sssp, ssspS0, ssspW0), cfg, bk.name})
		}
		// Bulk iterations have no solution set: one cell per parallelism.
		cells = append(cells, cell{bulkJob("pagerank", pagerank, ranks), iterative.Config{Parallelism: par}, ""})
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/par=%d/%s", c.job.name, c.cfg.Parallelism, c.backend), func(t *testing.T) {
			serial := runOnLane(t, c.job, c.cfg, serialLane)
			parallel := runOnLane(t, c.job, c.cfg, parallelLane)
			single := c.cfg.Parallelism == 1
			sameFixpoint(t, "serial vs parallel", serial, parallel, single || !c.job.racyBits)
			if c.job.racyWork && !single {
				return
			}
			if serial.steps != parallel.steps {
				t.Errorf("supersteps: serial %d, parallel %d", serial.steps, parallel.steps)
			}
			s, p := serial.work, parallel.work
			if s.UDFInvocations != p.UDFInvocations || s.SolutionAccesses != p.SolutionAccesses ||
				s.SolutionUpdates != p.SolutionUpdates || s.RecordsShipped != p.RecordsShipped {
				t.Errorf("work counters differ:\nserial   udf %d access %d update %d shipped %d\nparallel udf %d access %d update %d shipped %d",
					s.UDFInvocations, s.SolutionAccesses, s.SolutionUpdates, s.RecordsShipped,
					p.UDFInvocations, p.SolutionAccesses, p.SolutionUpdates, p.RecordsShipped)
			}
			if s.UDFInvocations == 0 || (c.job.name != "pagerank" && s.SolutionUpdates == 0) {
				t.Errorf("work counters never advanced: %+v", s)
			}
		})
	}
}

// TestLaneAlternatingAcrossScheduleChanges: the lane is chosen per
// superstep, so consecutive supersteps may take different lanes while the
// session's schedule changes under them — the constant path drops out once
// its caches fill, and a re-optimization swaps the session. Results must
// not depend on it.
func TestLaneAlternatingAcrossScheduleChanges(t *testing.T) {
	// A 2-host distributed CC job over a dense core with a long tail
	// re-plans to a different shape once the workset collapses (see
	// iterative's reshapingJob); planned with Hosts 2, the in-process run
	// takes the same swap.
	cc, s0, w0, err := distrib.BuildSpec(distrib.JobSpec{Algorithm: "cc-cogroup", GraphKind: "uniform-tail",
		GraphN: 200, GraphM: 30000, Seed: 0xE90C, Parallelism: 2, Reoptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ccJob := incrementalJob("cc-reoptimize", cc, s0, w0)
	runCC := ccJob.run
	ccJob.run = func(cfg iterative.Config) (laneRun, error) {
		cfg.Hosts = 2
		return runCC(cfg)
	}

	g := graphgen.Uniform("unrolled", 200, 600, 9)
	cached, ranks := algorithms.PageRankSpec(g, 6, algorithms.DefaultDamping, 0)

	cfg := iterative.Config{Parallelism: 2}
	for _, job := range []laneJob{
		ccJob,
		bulkJob("pagerank-cached", cached, ranks),
	} {
		t.Run(job.name, func(t *testing.T) {
			want := runOnLane(t, job, cfg, parallelLane)
			got := runOnLane(t, job, cfg, alternatingLanes())
			sameFixpoint(t, "alternating vs parallel", got, want, !job.racyBits)
			if got.steps != want.steps {
				t.Errorf("supersteps: alternating %d, parallel %d", got.steps, want.steps)
			}
			if job.name == "cc-reoptimize" && got.work.Reoptimizations == 0 {
				t.Error("the run never swapped sessions; the test needs the re-optimization path")
			}
		})
	}
}
