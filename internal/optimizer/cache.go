package optimizer

import (
	"math/bits"

	"repro/internal/dataflow"
	"repro/internal/record"
)

// PlanCache memoizes the artifacts of repeated optimizations of one
// logical plan: the key-identity registry (rebuilt from scratch by every
// plain Optimize call) and whole physical plans, fingerprinted by the
// planning inputs that actually change between mid-run re-optimizations —
// planner, fusion, parallelism, iteration weight, and the workset
// cardinality bucketed to its order of magnitude (the trigger granularity
// of re-planning: a plan costed for 10k workset records serves 9k ones
// identically). A hit skips planning entirely.
//
// The iteration driver does not use it: it re-plans only when the workset
// fell 16× below the last estimate, so no two re-plans of one run share a
// bucket. The cache prices what skipping planning entirely would buy (the
// harness's planner scenario and the benchmark's planner probe).
//
// A cache is bound to one logical plan and one spec shape; it is not safe
// for concurrent use.
type PlanCache struct {
	registry map[uintptr]record.KeyFunc
	plans    map[planKey]*PhysPlan
	// Hits and Misses count lookups.
	Hits, Misses int64
}

type planKey struct {
	planner            PlannerKind
	fuse               bool
	parallelism        int
	expectedIterations int
	// estBucket is ⌈log2(workset estimate)⌉: plans are reused across
	// estimates of the same order of magnitude.
	estBucket int
}

// NewPlanCache creates an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[planKey]*PhysPlan)}
}

// Optimize plans p under opt for the given workset-cardinality estimate,
// reusing a memoized plan when one exists for the same fingerprint. The
// second result reports whether the plan came from the cache. The caller
// owns applying est to the plan's placeholder estimate before calling (the
// cache only fingerprints it).
func (c *PlanCache) Optimize(p *dataflow.Plan, opt Options, est int64) (*PhysPlan, bool, error) {
	if c.registry == nil {
		c.registry = KeyRegistry(p, opt)
	}
	opt.Registry = c.registry
	k := planKey{
		planner:            opt.Planner,
		fuse:               opt.Fuse,
		parallelism:        opt.Parallelism,
		expectedIterations: opt.ExpectedIterations,
		estBucket:          bits.Len64(uint64(est)),
	}
	if pl, ok := c.plans[k]; ok {
		c.Hits++
		return pl, true, nil
	}
	pl, err := Optimize(p, opt)
	if err != nil {
		return nil, false, err
	}
	c.Misses++
	if c.plans == nil {
		c.plans = make(map[planKey]*PhysPlan)
	}
	c.plans[k] = pl
	return pl, false, nil
}
