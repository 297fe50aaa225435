package algorithms

import (
	"math"

	"repro/internal/dataflow"
	"repro/internal/iterative"
	"repro/internal/record"
)

// K-Means clustering as a bulk iteration — one of the workloads the
// paper's introduction names as a canonical bulk-iterative algorithm
// ("many clustering algorithms (such as K-Means)").
//
// The points are loop-invariant (cached constant path); the centroid set
// is the partial solution recomputed every pass: assign each point to its
// nearest centroid (Cross + Reduce per point), then average the members
// of each cluster (Match + Reduce per centroid).
//
// Records encode 2-D geometry in the fixed tuple shape: X carries the
// x-coordinate and B carries math.Float64bits of the y-coordinate.

// Point is a 2-D input point.
type Point struct {
	X, Y float64
}

func packPoint(id int64, p Point) record.Record {
	return record.Record{A: id, X: p.X, B: int64(math.Float64bits(p.Y))}
}

func unpackPoint(r record.Record) Point {
	return Point{X: r.X, Y: math.Float64frombits(uint64(r.B))}
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// KMeansSpec assembles the bulk-iterative K-Means dataflow. initial holds
// the starting centroids (ids 0..k-1).
func KMeansSpec(points []Point, initial []Point, iterations int) (iterative.BulkSpec, []record.Record) {
	plan := dataflow.NewPlan()

	pointRecs := make([]record.Record, len(points))
	for i, p := range points {
		pointRecs[i] = packPoint(int64(i), p)
	}
	src := plan.SourceOf("points", pointRecs)
	centroids := plan.IterationPlaceholder("centroids", int64(len(initial)))

	// Distance of every (point, centroid) pair.
	pairs := plan.CrossNode("distances", src, centroids,
		func(pt, c record.Record, out dataflow.Emitter) {
			d := dist2(unpackPoint(pt), unpackPoint(c))
			out.Emit(record.Record{A: pt.A, B: c.A, X: d})
		})
	pairs.EstRecords = int64(len(points) * len(initial))

	// Nearest centroid per point (ties to the smaller centroid id, for
	// determinism across plans and parallelism).
	nearest := plan.ReduceNode("nearest", pairs, record.KeyA,
		func(pid int64, group []record.Record, out dataflow.Emitter) {
			best := group[0]
			for _, g := range group[1:] {
				if g.X < best.X || (g.X == best.X && g.B < best.B) {
					best = g
				}
			}
			out.Emit(record.Record{A: pid, B: best.B})
		})
	nearest.EstRecords = int64(len(points))

	// Re-attach the coordinates and group by centroid.
	members := plan.MatchNode("members", nearest, src, record.KeyA, record.KeyA,
		func(assign, pt record.Record, out dataflow.Emitter) {
			out.Emit(record.Record{A: assign.B, X: pt.X, B: pt.B})
		})
	members.EstRecords = int64(len(points))

	recompute := plan.ReduceNode("recompute", members, record.KeyA,
		func(cid int64, group []record.Record, out dataflow.Emitter) {
			var sx, sy float64
			for _, g := range group {
				p := unpackPoint(g)
				sx += p.X
				sy += p.Y
			}
			n := float64(len(group))
			out.Emit(packPoint(cid, Point{X: sx / n, Y: sy / n}))
		})
	recompute.EstRecords = int64(len(initial))
	o := plan.SinkNode("O", recompute)

	spec := iterative.BulkSpec{
		Plan:            plan,
		Input:           centroids,
		Output:          o,
		FixedIterations: iterations,
	}
	init := make([]record.Record, len(initial))
	for i, c := range initial {
		init[i] = packPoint(int64(i), c)
	}
	return spec, init
}

// KMeansReference is the single-threaded Lloyd's algorithm oracle with the
// same tie-breaking rule.
func KMeansReference(points []Point, initial []Point, iterations int) []Point {
	centroids := append([]Point(nil), initial...)
	for it := 0; it < iterations; it++ {
		sumX := make([]float64, len(centroids))
		sumY := make([]float64, len(centroids))
		count := make([]int, len(centroids))
		for _, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ct := range centroids {
				if d := dist2(p, ct); d < bestD {
					best, bestD = c, d
				}
			}
			sumX[best] += p.X
			sumY[best] += p.Y
			count[best]++
		}
		for c := range centroids {
			if count[c] > 0 {
				centroids[c] = Point{X: sumX[c] / float64(count[c]), Y: sumY[c] / float64(count[c])}
			}
		}
	}
	return centroids
}

// GeneratePoints produces deterministic clustered 2-D points around the
// given true centers.
func GeneratePoints(centers []Point, perCluster int, spread float64, seed uint64) []Point {
	s := seed
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return (float64((s*0x2545f4914f6cdd1d)>>11)/float64(1<<53) - 0.5) * 2
	}
	var out []Point
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			out = append(out, Point{X: c.X + next()*spread, Y: c.Y + next()*spread})
		}
	}
	return out
}
