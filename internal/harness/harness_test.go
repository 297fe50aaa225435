package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graphgen"
)

func tinyOpts(buf *bytes.Buffer) Options {
	return Options{
		Scale:              graphgen.ScaleTiny,
		Parallelism:        2,
		PageRankIterations: 5,
		Out:                buf,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table1(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.FixpointIterations != 2 {
		t.Errorf("fixpoint iterations = %d, want 2 (Figure 1)", res.FixpointIterations)
	}
	if len(res.Trace) != 3 {
		t.Errorf("trace length = %d, want 3 (S0..S2)", len(res.Trace))
	}
	if !strings.Contains(buf.String(), "FIXPOINT-CC") {
		t.Error("missing output")
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 datasets, got %d", len(rows))
	}
	byName := map[string]DatasetStats{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Vertices == 0 || r.Edges == 0 {
			t.Errorf("dataset %s empty", r.Name)
		}
	}
	// Table 2's density ordering must hold.
	if byName["hollywood"].AvgDegree <= byName["wikipedia"].AvgDegree {
		t.Error("hollywood must be denser than wikipedia")
	}
}

func TestFigure2Decay(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure2(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Skipf("converged in %d supersteps", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.WorksetElements*5 > first.WorksetElements {
		t.Errorf("workset did not decay: %d -> %d", first.WorksetElements, last.WorksetElements)
	}
	if first.VerticesChanged == 0 {
		t.Error("no vertices changed in the first superstep")
	}
}

func TestFigure4(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure4(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// The two forced plans are the Figure-4 alternatives.
	if !strings.Contains(res.BroadcastPlan, "broadcast") {
		t.Errorf("forced broadcast plan has no broadcast edge:\n%s", res.BroadcastPlan)
	}
	if strings.Contains(res.PartitionPlan, "broadcast") {
		t.Errorf("forced partition plan broadcasts:\n%s", res.PartitionPlan)
	}
	// The free choice must be at least as cheap as either forced plan.
	if res.AutoCost > res.BroadcastCost+1 || res.AutoCost > res.PartitionCost+1 {
		t.Errorf("auto cost %.0f exceeds forced costs (bc %.0f, part %.0f)",
			res.AutoCost, res.BroadcastCost, res.PartitionCost)
	}
	// Regime sweep: tiny models broadcast, matrix-sized models must not.
	if !res.AutoTinyVectorUsesBroadcast {
		t.Error("tiny rank vector should choose the broadcast plan (Fig. 4 left)")
	}
	if res.AutoHugeVectorUsesBroadcast {
		t.Error("matrix-sized rank vector must not broadcast (Fig. 4 right)")
	}
}

func TestFigure7And8(t *testing.T) {
	var buf bytes.Buffer
	ts, err := Figure7(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 12 { // 3 datasets x 4 engines
		t.Fatalf("want 12 timings, got %d", len(ts))
	}
	ts8, err := Figure8(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, t8 := range ts8 {
		if len(t8.PerIteration) == 0 {
			t.Errorf("%s has no per-iteration data", t8.Engine)
		}
	}
}

func TestFigure9(t *testing.T) {
	var buf bytes.Buffer
	ts, err := Figure9(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 20 { // 4 datasets x 5 engines
		t.Fatalf("want 20 timings, got %d", len(ts))
	}
	for _, e := range ts {
		if e.Iterations == 0 {
			t.Errorf("%s on %s reports zero iterations", e.Engine, e.Dataset)
		}
	}
}

func TestFigure10(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure10(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// The chained-community Webbase stand-in must force a long
	// convergence tail even at tiny scale.
	if res.Supersteps < 20 {
		t.Errorf("webbase-like graph converged in only %d supersteps", res.Supersteps)
	}
	if res.BulkExtrapolated <= res.IncrementalTotal {
		t.Errorf("extrapolated bulk (%v) should exceed incremental (%v)",
			res.BulkExtrapolated, res.IncrementalTotal)
	}
}

func TestFigure11(t *testing.T) {
	var buf bytes.Buffer
	ts, err := Figure11(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 6 {
		t.Fatalf("want 6 engines, got %d", len(ts))
	}
}

func TestFigure12(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure12(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("want 3 variants, got %d", len(res.Variants))
	}
	for _, v := range res.Variants {
		if len(v.Times) == 0 || len(v.Times) != len(v.Messages) {
			t.Errorf("%s: inconsistent series (%d times, %d messages)",
				v.Name, len(v.Times), len(v.Messages))
		}
	}
}

// TestOptionsValidate checks that scenarios return configuration errors
// instead of silently normalizing them away.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Scale: -1},
		{Parallelism: -2},
		{PageRankIterations: -1},
	}
	for i, o := range bad {
		if _, err := Table1(o); err == nil {
			t.Errorf("Table1 accepted bad options %d", i)
		}
		if _, err := Table2(o); err == nil {
			t.Errorf("Table2 accepted bad options %d", i)
		}
		if _, err := Figure4(o); err == nil {
			t.Errorf("Figure4 accepted bad options %d", i)
		}
		if _, err := Trace(o, "cc"); err == nil {
			t.Errorf("Trace accepted bad options %d", i)
		}
	}
}

func TestDistributedScenario(t *testing.T) {
	var buf bytes.Buffer
	res, err := Distributed(tinyOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllIdentical {
		t.Fatal("a distributed fixpoint diverged from the single-process bytes")
	}
	if len(res.Checks) != 6 {
		t.Fatalf("checks = %d, want 6 (2 algorithms × 2 parallelisms, plus one reoptimize cell per algorithm)", len(res.Checks))
	}
	reoptCells := 0
	for _, c := range res.Checks {
		if c.Reoptimize {
			reoptCells++
			if c.Algorithm == "cc" && c.PlanEpochs != 1 {
				t.Errorf("cc reoptimize cell applied %d plan epochs, want its one shape change", c.PlanEpochs)
			}
		} else if c.PlanEpochs != 0 {
			t.Errorf("%s par=%d applied %d plan epochs without reoptimize on", c.Algorithm, c.Parallelism, c.PlanEpochs)
		}
	}
	if reoptCells != 2 {
		t.Errorf("reoptimize cells = %d, want one per algorithm", reoptCells)
	}
	for _, c := range res.Checks {
		if !c.Identical {
			t.Errorf("%s par=%d diverged", c.Algorithm, c.Parallelism)
		}
		if c.Supersteps < 2 {
			t.Errorf("%s par=%d converged in %d supersteps — graph too trivial to exercise the transport", c.Algorithm, c.Parallelism, c.Supersteps)
		}
		if c.Records == 0 {
			t.Errorf("%s par=%d produced an empty solution", c.Algorithm, c.Parallelism)
		}
	}
	if len(res.Bench) != 2 {
		t.Fatalf("bench rows = %d, want 2 (1-process and 2-process)", len(res.Bench))
	}
	if res.Bench[0].RemoteBatches != 0 {
		t.Errorf("single-process row shipped %d remote batches", res.Bench[0].RemoteBatches)
	}
	if res.Bench[1].RemoteBatches == 0 {
		t.Error("2-process row shipped no remote batches")
	}
	if !strings.Contains(buf.String(), "Distributed mode") {
		t.Error("missing output")
	}
}
