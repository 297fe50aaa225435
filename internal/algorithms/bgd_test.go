package algorithms

import (
	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/record"
)

// Batch Gradient Descent for linear regression as a bulk iteration — the
// other machine-learning workload the paper's introduction lists
// ("machine learning algorithms like Batch Gradient Descend").
//
// The training set is loop-invariant; the weight vector is the partial
// solution. Each pass computes predictions (join weights with features,
// sum per example), errors (join with labels), and the gradient (join
// errors back with features, sum per dimension), then updates the
// weights — a five-operator dataflow iterated to convergence.
//
// Record layouts:
//
//	feature: (A=example id, B=dimension, X=value)
//	label:   (A=example id, X=target)
//	weight:  (A=dimension, X=value)

// Example is one labelled training example.
type Example struct {
	Features []float64
	Label    float64
}

// BGDSpec assembles the gradient-descent dataflow. dims is the feature
// dimensionality (including a bias column the caller supplies), lr the
// learning rate.
func BGDSpec(examples []Example, dims int, lr float64, iterations int) (iterative.BulkSpec, []record.Record) {
	plan := dataflow.NewPlan()
	n := float64(len(examples))

	var featRecs, labelRecs []record.Record
	for i, ex := range examples {
		for d, v := range ex.Features {
			featRecs = append(featRecs, record.Record{A: int64(i), B: int64(d), X: v})
		}
		labelRecs = append(labelRecs, record.Record{A: int64(i), X: ex.Label})
	}
	features := plan.SourceOf("features", featRecs)
	labels := plan.SourceOf("labels", labelRecs)
	weights := plan.IterationPlaceholder("w", int64(dims))

	// Per-(example, dimension) partial products w_d * x_{i,d}.
	products := plan.MatchNode("products", weights, features, record.KeyA, record.KeyB,
		func(w, f record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: f.A, X: w.X * f.X})
		})
	products.EstRecords = int64(len(featRecs))

	// Predictions per example.
	predict := plan.ReduceNode("predict", products, record.KeyA,
		func(eid int64, group []record.Record, out dataflow.Emitter) {
			var s float64
			for _, g := range group {
				s += g.X
			}
			out.Emit(record.Record{A: eid, X: s})
		})
	predict.Combinable = true
	predict.EstRecords = int64(len(examples))

	// Errors per example: prediction - label.
	errs := plan.MatchNode("errors", predict, labels, record.KeyA, record.KeyA,
		func(p, l record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: p.A, X: p.X - l.X})
		})
	errs.EstRecords = int64(len(examples))

	// Gradient contributions err_i * x_{i,d}, summed per dimension.
	contrib := plan.MatchNode("gradContrib", errs, features, record.KeyA, record.KeyA,
		func(e, f record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: f.B, X: e.X * f.X})
		})
	contrib.EstRecords = int64(len(featRecs))

	grad := plan.ReduceNode("gradient", contrib, record.KeyA,
		func(dim int64, group []record.Record, out dataflow.Emitter) {
			var s float64
			for _, g := range group {
				s += g.X
			}
			out.Emit(record.Record{A: dim, X: s})
		})
	grad.Combinable = true
	grad.EstRecords = int64(dims)

	// Weight update w' = w - lr/n * g. Every example carries every
	// dimension, so every dimension has a gradient and a Match keeps all
	// of them.
	update := plan.MatchNode("update", weights, grad, record.KeyA, record.KeyA,
		func(w, g record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: w.A, X: w.X - lr/n*g.X})
		})
	update.EstRecords = int64(dims)
	o := plan.SinkNode("O", update)

	spec := iterative.BulkSpec{
		Plan:            plan,
		Input:           weights,
		Output:          o,
		FixedIterations: iterations,
	}
	init := make([]record.Record, dims)
	for d := 0; d < dims; d++ {
		init[d] = record.Record{A: int64(d), X: 0}
	}
	return spec, init
}

// BGDReference is the single-threaded oracle with identical updates.
func BGDReference(examples []Example, dims int, lr float64, iterations int) []float64 {
	w := make([]float64, dims)
	n := float64(len(examples))
	for it := 0; it < iterations; it++ {
		grad := make([]float64, dims)
		for _, ex := range examples {
			var pred float64
			for d, v := range ex.Features {
				pred += w[d] * v
			}
			err := pred - ex.Label
			for d, v := range ex.Features {
				grad[d] += err * v
			}
		}
		for d := range w {
			w[d] -= lr / n * grad[d]
		}
	}
	return w
}
