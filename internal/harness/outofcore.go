package harness

import (
	"sort"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

// OutOfCoreResult reports the larger-than-budget Connected Components
// scenario: the same incremental iteration run with an unbounded solution
// set and with a memory budget far below the converged state's footprint.
type OutOfCoreResult struct {
	// Footprint is the unbudgeted solution set's resident-bytes estimate
	// at convergence.
	Footprint int64
	// Budget is the memory budget the spilled run was given.
	Budget int64
	// Resident is the spilled run's resident-bytes gauge at convergence.
	Resident int64
	// Spills and Reloads count partition evictions and replays.
	Spills, Reloads int64
	// Supersteps is the spilled run's superstep count.
	Supersteps int
	// Identical reports whether the two runs' solutions are byte-identical
	// (same records, compared after a canonical sort).
	Identical bool
}

// sortedRecords canonically orders a solution for byte-level comparison.
func sortedRecords(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

// recordsIdentical compares two solutions field-by-field after sorting.
func recordsIdentical(a, b []record.Record) bool {
	as, bs := sortedRecords(a), sortedRecords(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if !as[i].Equal(bs[i]) {
			return false
		}
	}
	return true
}

// OutOfCore runs incremental Connected Components whose solution-set
// footprint exceeds the configured memory budget: the spillable backend
// must evict partitions to disk (SolutionSpills > 0) and still converge to
// a solution byte-identical to the unbudgeted run. This is the workload
// class the compact/spill backends open: iteration state larger than RAM
// (§4.3's gradual spilling, applied to the solution set).
func OutOfCore(o Options) (*OutOfCoreResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.FOAF(o.Scale)

	var baseM metrics.Counters
	baseCfg := iterative.Config{Parallelism: o.Parallelism, Metrics: &baseM}
	_, baseRes, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, baseCfg)
	if err != nil {
		return nil, err
	}
	res := &OutOfCoreResult{Footprint: baseM.SolutionBytes.Load()}

	// A budget of a quarter of the converged footprint forces most
	// partitions out of memory for most of the run.
	res.Budget = res.Footprint / 4
	if res.Budget < record.EncodedSize {
		res.Budget = record.EncodedSize
	}
	var spillM metrics.Counters
	spillCfg := iterative.Config{
		Parallelism:          o.Parallelism,
		Metrics:              &spillM,
		SolutionMemoryBudget: res.Budget,
	}
	_, spillRes, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, spillCfg)
	if err != nil {
		return nil, err
	}
	defer spillRes.Set.Reset() // the evicted partitions' spill files
	res.Resident = spillM.SolutionBytes.Load()
	res.Spills = spillM.SolutionSpills.Load()
	res.Reloads = spillM.SolutionReloads.Load()
	res.Supersteps = spillRes.Supersteps
	res.Identical = recordsIdentical(baseRes.Solution, spillRes.Solution)

	o.printf("Out-of-core — incremental CC on %s (V=%d E=%d) under a solution memory budget\n",
		g.Name, g.NumVertices, g.NumEdges())
	o.printf("  %-22s %12d bytes\n", "unbudgeted footprint", res.Footprint)
	o.printf("  %-22s %12d bytes\n", "budget", res.Budget)
	o.printf("  %-22s %12d bytes\n", "resident at end", res.Resident)
	o.printf("  %-22s %12d\n", "partition spills", res.Spills)
	o.printf("  %-22s %12d\n", "partition reloads", res.Reloads)
	o.printf("  %-22s %12d (unbudgeted: %d)\n", "supersteps", res.Supersteps, baseRes.Supersteps)
	o.printf("  %-22s %12v\n\n", "byte-identical", res.Identical)
	return res, nil
}
