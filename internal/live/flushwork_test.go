package live

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

// The serving shape: one preferential-attachment component, three edges
// per vertex, taking 64-insert batches of which half attach a new vertex.
// An insert flush must cost its batch, not the graph.

// attachmentEdges builds the initial inserts of a preferential-attachment
// graph over vertices 0..n-1.
func attachmentEdges(n int64, seed uint64) []Mutation {
	g := graphgen.PreferentialAttachment("serve", n, 3, seed)
	out := make([]Mutation, len(g.Edges))
	for i, e := range g.Edges {
		out[i] = InsertEdge(e.Src, e.Dst)
	}
	return out
}

// insertStream draws 64-insert batches over the vertices below next: even
// slots join two existing vertices, odd ones attach vertex next.
type insertStream struct {
	rng  *rand.Rand
	next int64
}

func (s *insertStream) batch() []Mutation {
	out := make([]Mutation, 64)
	for j := range out {
		src, dst := s.rng.Int63n(s.next), s.rng.Int63n(s.next)
		if j%2 == 1 {
			dst = s.next
			s.next++
		}
		if src == dst {
			dst = (dst + 1) % s.next
		}
		out[j] = InsertEdge(src, dst)
	}
	return out
}

// minUnionFind is the insert-only CC oracle: a dense union-find whose roots
// are the component minima.
type minUnionFind []int64

func (u *minUnionFind) find(x int64) int64 {
	for int64(len(*u)) <= x {
		*u = append(*u, int64(len(*u)))
	}
	p := *u
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (u *minUnionFind) union(a, b int64) {
	ra, rb := u.find(a), u.find(b)
	if ra > rb {
		ra, rb = rb, ra
	}
	(*u)[rb] = ra
}

// TestInsertFlushWorkBoundedByBatch streams 400 insert-only 64-edge batches
// into a ~135k-edge serving-shape view. Every candidate round past the
// first re-examines the edge overlay, which must stay bounded by the batch
// — at most overlayFoldFactor batches' worth plus the current one per
// round — rather than grow with the graph. A flush runs one such round per
// warm restart: usually one, two when a new vertex hangs off another one
// the same batch created (the second's label reaches it only across the
// overlay). Answers must track union-find after every batch, with no
// recompute of any kind.
func TestInsertFlushWorkBoundedByBatch(t *testing.T) {
	const vertices, batches, bound = 45_000, 400, (overlayFoldFactor + 1) * 64
	initial := attachmentEdges(vertices, 7)
	v, err := NewView("serve", CC(), initial, ViewConfig{Config: iterative.Config{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var oracle minUnionFind
	for _, mu := range initial {
		oracle.union(mu.Src, mu.Dst)
	}
	s := &insertStream{rng: rand.New(rand.NewSource(38)), next: vertices}
	for b := 0; b < batches; b++ {
		batch := s.batch()
		for _, mu := range batch {
			oracle.union(mu.Src, mu.Dst)
		}
		before := v.Stats()
		if err := v.Mutate(batch...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		after := v.Stats()
		rounds := after.WarmRestarts - before.WarmRestarts
		if grew := after.CandidateEdges - before.CandidateEdges; grew > bound*rounds || rounds > 3 {
			t.Fatalf("batch %d re-examined %d overlay edges in %d rounds, bound %d a round", b, grew, rounds, bound)
		}
		// The resident solution, streamed in place: a sorted Snapshot per
		// batch would dominate the test's time.
		n := 0
		v.mu.RLock()
		err := v.sess.EachSolution(func(r record.Record) error {
			n++
			if want := oracle.find(r.A); r.B != want {
				return fmt.Errorf("vertex %d -> %d, oracle %d", r.A, r.B, want)
			}
			return nil
		})
		v.mu.RUnlock()
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if n != len(oracle) {
			t.Fatalf("batch %d: %d solution records, oracle has %d", b, n, len(oracle))
		}
	}
	st := v.Stats()
	if st.PartialRecomputes+st.FullRecomputes != 0 {
		t.Fatalf("insert-only stream recomputed: %d partial, %d full", st.PartialRecomputes, st.FullRecomputes)
	}
	if st.Folds == 0 {
		t.Fatal("the overlay never folded")
	}
}

// TestFlushRoundSpans: a flush on a view with a telemetry registry records
// one span per control round, labelled with its verb, inside the flush's
// own span — beside the supersteps — so a traced flush shows where its
// time went.
func TestFlushRoundSpans(t *testing.T) {
	reg := obs.NewRegistry()
	v, err := NewView("spans", CC(), ringEdges(16), ViewConfig{Config: iterative.Config{Parallelism: 2, Obs: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Mutate(InsertEdge(100, 0), InsertEdge(101, 100)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	spans := reg.Trace().SpansFor(v.TraceID())
	var flush *obs.Span
	for i := range spans {
		if spans[i].Phase == obs.PhaseFlush {
			flush = &spans[i]
		}
	}
	if flush == nil {
		t.Fatal("no flush span")
	}
	inside := map[string]int{}
	for _, sp := range spans {
		if sp.Start >= flush.Start && sp.Start+sp.Dur <= flush.Start+flush.Dur {
			switch sp.Phase {
			case obs.PhaseRound:
				inside[sp.Label]++
			case obs.PhaseSuperstep:
				inside["superstep"]++
			}
		}
	}
	for _, want := range []string{"apply", "gather", "seed", "superstep"} {
		if inside[want] == 0 {
			t.Fatalf("spans inside the flush: %v, want %q among them", inside, want)
		}
	}
}

// BenchmarkInsertFlush times one 64-insert flush on serving-shape graphs
// of two sizes, after 200 warm-up batches have built up an overlay. The
// per-op time should not grow with the graph.
func BenchmarkInsertFlush(b *testing.B) {
	for _, edges := range []int64{20_000, 200_000} {
		b.Run(fmt.Sprintf("edges=%dk", edges/1000), func(b *testing.B) {
			vertices := edges / 3
			v, err := NewView("serve", CC(), attachmentEdges(vertices, 7), ViewConfig{Config: iterative.Config{Parallelism: 2}})
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			s := &insertStream{rng: rand.New(rand.NewSource(38)), next: vertices}
			flush := func() {
				if err := v.Mutate(s.batch()...); err != nil {
					b.Fatal(err)
				}
				if err := v.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			for range 200 {
				flush()
			}
			for b.Loop() {
				flush()
			}
		})
	}
}
