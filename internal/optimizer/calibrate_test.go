package optimizer

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestCalibratorRecoversWeights feeds synthetic supersteps generated from
// known constants and checks the fit recovers them (the regression's
// features are diverse, so the system is well-conditioned).
func TestCalibratorRecoversWeights(t *testing.T) {
	const (
		net, cpu, group, merge = 2.0, 1.0, 3.0, 0.5 // ns per record
		step                   = 1000.0             // ns per task
	)
	c := NewCalibrator()
	if w := c.Weights(); w.Samples != 0 || w.Net != DefaultWeights().Net {
		t.Fatalf("empty calibrator should return defaults, got %+v", w)
	}

	mk := func(sh, udf, acc, upd int64, tasks int) {
		ns := net*float64(sh) + cpu*float64(udf) + group*float64(acc) +
			merge*float64(upd) + step*float64(tasks)
		c.ObserveSuperstep(metrics.Snapshot{
			RecordsShipped: sh, UDFInvocations: udf,
			SolutionAccesses: acc, SolutionUpdates: upd,
		}, tasks, time.Duration(ns))
	}
	// Diverse samples: vary each feature independently.
	mk(1000, 500, 200, 100, 8)
	mk(5000, 500, 200, 100, 8)
	mk(1000, 4000, 200, 100, 8)
	mk(1000, 500, 3000, 100, 8)
	mk(1000, 500, 200, 2000, 8)
	mk(1000, 500, 200, 100, 32)
	mk(2000, 1000, 400, 200, 16)
	mk(8000, 100, 100, 50, 8)

	w := c.Weights()
	if w.Samples != 8 {
		t.Fatalf("Samples = %d, want 8", w.Samples)
	}
	approx := func(name string, got, want float64) {
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s = %.3f, want ≈ %.3f", name, got, want)
		}
	}
	approx("Net", w.Net, net)
	approx("CPU", w.CPU, cpu)
	approx("Group", w.Group, group)
	approx("Merge", w.Merge, merge)
	approx("StepOverhead", w.StepOverhead, step)
}

// TestCalibratorDegenerate checks that collinear samples (every superstep
// identical — the long-tail regime) fall back to defaults-shaped safety
// rather than producing a wild fit: weights stay non-negative and the
// per-record sum stays positive.
func TestCalibratorDegenerate(t *testing.T) {
	c := NewCalibrator()
	for i := 0; i < 10; i++ {
		c.ObserveSuperstep(metrics.Snapshot{
			RecordsShipped: 100, UDFInvocations: 100,
			SolutionAccesses: 100, SolutionUpdates: 100,
		}, 8, time.Millisecond)
	}
	w := c.Weights()
	if w.Net < 0 || w.CPU < 0 || w.Group < 0 || w.Merge < 0 || w.StepOverhead < 0 {
		t.Fatalf("negative fitted weight: %+v", w)
	}
	if w.Net+w.CPU+w.Group+w.Merge <= 0 {
		t.Fatalf("fit lost all per-record cost: %+v", w)
	}
}

// TestEngineCostOrdering sanity-checks the per-engine formulas under the
// default weights: a tiny workset over a big solution favors incremental
// execution against bulk's full recompute, and bulk's cost scales with
// the solution it re-materializes rather than the workset.
func TestEngineCostOrdering(t *testing.T) {
	w := DefaultWeights()
	st := EngineStats{
		SolutionSize: 100000, WorksetSize: 50, ConstantSize: 200000,
		ExpectedSupersteps: 10, Tasks: 24,
	}
	bulk := EngineCost(EngineBulk, st, w)
	inc := EngineCost(EngineIncremental, st, w)
	if inc >= bulk {
		t.Errorf("tiny workset: incremental (%.0f) should beat bulk (%.0f)", inc, bulk)
	}

	// A huge workset narrows the gap to bulk.
	st.WorksetSize = 400000
	if EngineCost(EngineIncremental, st, w) <= inc {
		t.Error("incremental cost did not grow with the workset")
	}
}
