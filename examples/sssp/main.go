// Single-source shortest paths as an incremental iteration meeting the
// microstep conditions: the working set carries distance candidates, the
// solution set keeps each vertex's best-known distance, and improvements
// are written into it as they are found (paper §2.2/§5.2).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	spinflow "repro"
)

func main() {
	// A weighted random graph; weights derived deterministically from the
	// endpoints.
	g := spinflow.UniformGraph(50_000, 300_000, 7)
	weight := func(s, d int64) float64 { return 1 + float64((s*31+d*17)%10) }

	edges := make([]spinflow.Record, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		w := weight(e.Src, e.Dst)
		edges = append(edges,
			spinflow.Record{A: e.Src, B: e.Dst, X: w},
			spinflow.Record{A: e.Dst, B: e.Src, X: w})
	}

	p := spinflow.NewPlan()
	w := p.IterationPlaceholder("W", int64(len(edges)))
	relax := p.SolutionJoinNode("relax", w, spinflow.KeyA,
		func(c, s spinflow.Record, found bool, out spinflow.Emitter) {
			if !found || c.X < s.X {
				out.Emit(spinflow.Record{A: c.A, X: c.X})
			}
		})
	relax.Preserve(0, spinflow.KeyA)
	d := p.SinkNode("D", relax)
	es := p.SourceOf("E", edges)
	prop := p.MatchNode("expand", relax, es, spinflow.KeyA, spinflow.KeyA,
		func(dr, er spinflow.Record, out spinflow.Emitter) {
			out.Emit(spinflow.Record{A: er.B, X: dr.X + er.X})
		})
	w2 := p.SinkNode("W'", prop)

	spec := spinflow.IncrementalSpec{
		Plan: p, Workset: w, DeltaSink: d, WorksetSink: w2,
		SolutionKey: spinflow.KeyA, WorksetKey: spinflow.KeyA,
		Comparator: func(a, b spinflow.Record) int {
			switch {
			case a.X < b.X:
				return 1
			case a.X > b.X:
				return -1
			}
			return 0
		},
	}

	// Validate the §5.2 microstep conditions before running.
	if _, err := spinflow.ValidateMicrostep(spec); err != nil {
		log.Fatalf("plan not microstep-admissible: %v", err)
	}

	const source = 0
	w0 := []spinflow.Record{{A: source, X: 0}}

	// The spec is admissible, so RunIncremental merges each improvement
	// into the solution set the moment it is found.
	start := time.Now()
	res, err := spinflow.RunIncremental(spec, nil, w0, spinflow.Config{Parallelism: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSSP from vertex %d on %d vertices / %d weighted edges\n",
		source, g.NumVertices, len(edges))
	fmt.Printf("  reached %d vertices in %v (%d supersteps)\n",
		len(res.Solution), time.Since(start).Round(time.Millisecond), res.Supersteps)

	far := append([]spinflow.Record(nil), res.Solution...)
	sort.Slice(far, func(i, j int) bool { return far[i].X > far[j].X })
	fmt.Println("farthest reached vertices:")
	for i := 0; i < 5 && i < len(far); i++ {
		fmt.Printf("  vertex %6d  distance %.0f\n", far[i].A, far[i].X)
	}
}
