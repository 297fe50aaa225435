// Package fixpoint implements the iteration theory of Section 2 of the
// paper: generic fixpoint iterations, incremental (workset) iterations,
// and microstep iterations — the three templates of Table 1 — together
// with single-machine implementations of the Connected Components
// algorithm in each style. The harness regenerates Table 1's semantics
// and the Figure 1 trace from them; their tests check every variant
// against the union-find oracle of internal/difftest and every Kleene
// chain against the CPO of §2.1.
package fixpoint

import (
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iteration exceeds its step budget.
var ErrNoConvergence = errors.New("fixpoint: iteration did not converge within budget")

// Fixpoint repeatedly applies the step function f until two consecutive
// partial solutions are equal (template FIXPOINT of Table 1):
//
//	while s != f(s) { s = f(s) }
//
// It returns the fixpoint and the number of applications of f that were
// needed to reach it (the k with f^k(s) = f^(k+1)(s)).
func Fixpoint[S any](f func(S) S, equal func(S, S) bool, s S, maxIter int) (S, int, error) {
	for i := 0; i < maxIter; i++ {
		next := f(s)
		if equal(s, next) {
			return s, i, nil
		}
		s = next
	}
	return s, maxIter, ErrNoConvergence
}

// Incremental runs the workset iteration of template INCR (Table 1, as
// refined in §5.1 with delta sets):
//
//	while W != ∅ { D = u(S, W); W = δ(D, S, W); S = S ∪̇ D }
//
// u computes the delta set from the current solution and working set; delta
// computes the next working set; merge applies the delta to the solution.
// It returns the converged solution and the number of supersteps.
func Incremental[S, W, D any](
	u func(S, W) D,
	delta func(D, S, W) W,
	merge func(S, D) S,
	emptyW func(W) bool,
	s S, w W, maxIter int,
) (S, int, error) {
	for i := 0; i < maxIter; i++ {
		if emptyW(w) {
			return s, i, nil
		}
		d := u(s, w)
		next := delta(d, s, w)
		s = merge(s, d)
		w = next
	}
	return s, maxIter, ErrNoConvergence
}

// Microstep runs the microstep iteration of template MICRO (Table 1): one
// working-set element at a time is removed and used to update the partial
// solution and the working set:
//
//	while W != ∅ { d = arb(W); S = u(S, d); W = W ∪ δ(S, d) }
//
// apply updates the solution with one element and reports whether the
// solution changed; expand produces the new working-set elements caused by
// a change. It returns the converged solution and the number of microsteps
// executed (elements consumed).
func Microstep[S, E any](
	apply func(S, E) (S, bool),
	expand func(S, E) []E,
	s S, w []E, maxSteps int,
) (S, int, error) {
	steps := 0
	for len(w) > 0 {
		if steps >= maxSteps {
			return s, steps, ErrNoConvergence
		}
		// arb: take from the front (FIFO, like the runtime's queues).
		d := w[0]
		w = w[1:]
		steps++
		next, changed := apply(s, d)
		s = next
		if changed {
			w = append(w, expand(s, d)...)
		}
	}
	return s, steps, nil
}

// Assignment is a partial solution for Connected Components: a mapping
// from vertex id to component id. Index = vertex id.
type Assignment []int64

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	return append(Assignment(nil), a...)
}

// Equal reports element-wise equality.
func (a Assignment) Equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InitialAssignment numbers each vertex with its own id — the canonical
// initial partial solution for Connected Components.
func InitialAssignment(numVertices int64) Assignment {
	s := make(Assignment, numVertices)
	for i := range s {
		s[i] = int64(i)
	}
	return s
}

// Candidate is a working-set element for Connected Components: component
// id c is a candidate for vertex v.
type Candidate struct {
	V, C int64
}

// FixpointCC is algorithm FIXPOINT-CC of Table 1: every iteration sets
// every vertex's component id to the minimum of its own and all its
// neighbors'. adj must be the undirected neighborhood mapping N.
// It returns the final assignment and the number of iterations.
func FixpointCC(adj [][]int64, maxIter int) (Assignment, int, error) {
	s := InitialAssignment(int64(len(adj)))
	step := func(cur Assignment) Assignment {
		next := cur.Clone()
		for v := range adj {
			m := cur[v]
			for _, n := range adj[v] {
				if cur[n] < m {
					m = cur[n]
				}
			}
			next[v] = m
		}
		return next
	}
	return fixpointWith(step, s, maxIter)
}

func fixpointWith(step func(Assignment) Assignment, s Assignment, maxIter int) (Assignment, int, error) {
	return Fixpoint(step, Assignment.Equal, s, maxIter)
}

// IncrementalCC is algorithm INCR-CC of Table 1 expressed through the
// generic Incremental template. The working set holds candidate component
// ids; u keeps the improving candidates as the delta; δ propagates each
// delta to the neighbors.
func IncrementalCC(adj [][]int64, maxIter int) (Assignment, int, error) {
	s := InitialAssignment(int64(len(adj)))
	w := initialCandidates(adj, s)

	u := func(cur Assignment, work []Candidate) []Candidate {
		// Keep, per vertex, the best improving candidate (the dedup a
		// CoGroup on vid performs in the dataflow version).
		best := make(map[int64]int64, len(work))
		for _, cand := range work {
			if cand.C >= cur[cand.V] {
				continue
			}
			if b, ok := best[cand.V]; !ok || cand.C < b {
				best[cand.V] = cand.C
			}
		}
		d := make([]Candidate, 0, len(best))
		for v, c := range best {
			d = append(d, Candidate{V: v, C: c})
		}
		return d
	}
	delta := func(d []Candidate, _ Assignment, _ []Candidate) []Candidate {
		var next []Candidate
		for _, ch := range d {
			for _, n := range adj[ch.V] {
				next = append(next, Candidate{V: n, C: ch.C})
			}
		}
		return next
	}
	merge := func(cur Assignment, d []Candidate) Assignment {
		for _, ch := range d {
			if ch.C < cur[ch.V] {
				cur[ch.V] = ch.C
			}
		}
		return cur
	}
	empty := func(w []Candidate) bool { return len(w) == 0 }
	return Incremental(u, delta, merge, empty, s, w, maxIter)
}

// MicrostepCC is algorithm MICRO-CC of Table 1: one candidate at a time
// updates the assignment and enqueues candidates for the neighbors.
func MicrostepCC(adj [][]int64, maxSteps int) (Assignment, int, error) {
	s := InitialAssignment(int64(len(adj)))
	w := initialCandidates(adj, s)
	apply := func(cur Assignment, d Candidate) (Assignment, bool) {
		if d.C < cur[d.V] {
			cur[d.V] = d.C
			return cur, true
		}
		return cur, false
	}
	expand := func(cur Assignment, d Candidate) []Candidate {
		out := make([]Candidate, 0, len(adj[d.V]))
		for _, n := range adj[d.V] {
			out = append(out, Candidate{V: n, C: d.C})
		}
		return out
	}
	return Microstep(apply, expand, s, w, maxSteps)
}

// initialCandidates is the paper's W0 for INCR-CC: all pairs (v, c) where
// c is the component id of a neighbor of v.
func initialCandidates(adj [][]int64, s Assignment) []Candidate {
	var w []Candidate
	for v := range adj {
		for _, n := range adj[v] {
			w = append(w, Candidate{V: int64(v), C: s[n]})
		}
	}
	return w
}

// Figure1Graph returns the 9-vertex sample graph of Figure 1 (vertex ids
// shifted to 0-based: paper vertex k is our k-1). Components:
// {1,2,3,4}, {5,6}, {7,8,9}.
func Figure1Graph() [][]int64 {
	edges := [][2]int64{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, // component {1,2,3,4}
		{4, 5},                 // component {5,6}
		{6, 7}, {6, 8}, {7, 8}, // component {7,8,9}
	}
	adj := make([][]int64, 9)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}

// TraceFixpointCC runs FIXPOINT-CC and records the full Kleene chain of
// partial solutions (used to regenerate the Figure 1 trace).
func TraceFixpointCC(adj [][]int64, maxIter int) ([]Assignment, error) {
	s := InitialAssignment(int64(len(adj)))
	chain := []Assignment{s.Clone()}
	for i := 0; i < maxIter; i++ {
		next := s.Clone()
		for v := range adj {
			m := s[v]
			for _, n := range adj[v] {
				if s[n] < m {
					m = s[n]
				}
			}
			next[v] = m
		}
		if next.Equal(s) {
			return chain, nil
		}
		chain = append(chain, next.Clone())
		s = next
	}
	return chain, fmt.Errorf("trace: %w", ErrNoConvergence)
}
