package optimizer

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Calibrator fits the unitless cost weights from measured superstep
// timings, so repeated runs (live views re-planning recomputes, harness
// sweeps) cost engine candidates with observed rather than guessed
// constants.
//
// Every barrier superstep contributes one sample relating the work
// counters the runtime already collects to the superstep's wall time:
//
//	duration ≈ Net·shipped + CPU·udf + Group·accesses + Merge·updates
//	         + StepOverhead·tasks
//
// The weights are estimated by ridge-regularized least squares over all
// samples, clamped non-negative (a negative per-record cost is always a
// fitting artifact).
//
// A Calibrator is safe for concurrent use and is meant to be shared
// across runs (e.g. stored in an iterative.Config reused by a live view).
type Calibrator struct {
	mu sync.Mutex
	// Normal equations for the 5-feature fit: xtx = Σ xᵀx, xty = Σ xᵀy
	// with features [shipped, udf, accesses, updates, tasks] and target
	// duration in nanoseconds.
	xtx [5][5]float64
	xty [5]float64
	n   int
}

// NewCalibrator returns an empty calibrator; until it has MinSamples
// superstep observations, Weights returns the built-in defaults.
func NewCalibrator() *Calibrator { return &Calibrator{} }

// MinSamples is the number of superstep observations required before the
// fit replaces the default weights — below it the normal equations are
// routinely degenerate.
const MinSamples = 6

func features(work metrics.Snapshot, tasks int) [5]float64 {
	return [5]float64{
		float64(work.RecordsShipped),
		float64(work.UDFInvocations),
		float64(work.SolutionAccesses),
		float64(work.SolutionUpdates),
		float64(tasks),
	}
}

// ObserveSuperstep records one barrier superstep: the work-counter delta
// it produced, the tasks (plan nodes × parallelism) it woke, and its wall
// time.
func (c *Calibrator) ObserveSuperstep(work metrics.Snapshot, tasks int, d time.Duration) {
	x := features(work, tasks)
	y := float64(d.Nanoseconds())
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			c.xtx[i][j] += x[i] * x[j]
		}
		c.xty[i] += x[i] * y
	}
	c.n++
}

// Samples returns the number of superstep observations consumed so far.
func (c *Calibrator) Samples() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Weights returns the fitted weights, or the defaults while fewer than
// MinSamples supersteps have been observed (Samples reports which).
func (c *Calibrator) Weights() metrics.CalibratedWeights {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weightsLocked()
}

func (c *Calibrator) weightsLocked() metrics.CalibratedWeights {
	def := DefaultWeights()
	if c.n < MinSamples {
		return def
	}
	sol, ok := c.solveLocked()
	if !ok {
		return def
	}
	return metrics.CalibratedWeights{
		Net: sol[0], CPU: sol[1], Group: sol[2], Merge: sol[3],
		StepOverhead: sol[4],
		Samples:      c.n,
	}
}

// solveLocked solves the ridge-regularized normal equations and clamps
// the solution non-negative. ok=false on a degenerate system.
func (c *Calibrator) solveLocked() ([5]float64, bool) {
	var a [5][6]float64
	// Ridge term: proportional to the mean diagonal so the
	// regularization is scale-free. Small enough not to bias
	// well-conditioned fits; the degenerate-fit guard below handles the
	// rest.
	var trace float64
	for i := 0; i < 5; i++ {
		trace += c.xtx[i][i]
	}
	lambda := 1e-9 * trace / 5
	if lambda <= 0 {
		return [5]float64{}, false
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			a[i][j] = c.xtx[i][j]
		}
		a[i][i] += lambda
		a[i][5] = c.xty[i]
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 5; col++ {
		piv := col
		for r := col + 1; r < 5; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if abs(a[piv][col]) < 1e-12 {
			return [5]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < 5; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for j := col; j < 6; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	var sol [5]float64
	for i := 0; i < 5; i++ {
		sol[i] = a[i][5] / a[i][i]
		if sol[i] < 0 {
			sol[i] = 0
		}
	}
	// A fit where no per-record feature carries cost explains nothing;
	// treat as degenerate.
	if sol[0]+sol[1]+sol[2]+sol[3] <= 0 {
		return [5]float64{}, false
	}
	return sol, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
