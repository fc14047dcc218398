// Package motion implements the consistency machinery of Sections III-B
// and VI of the paper: r-consistent sets, r-consistent motions over a time
// window [k-1, k], τ-dense / τ-sparse classification, and the enumeration
// of maximal r-consistent motions.
//
// With the uniform norm, a set is r-consistent exactly when it fits into
// an axis-aligned hypercube of side 2r, and r-consistency is pairwise.
// A motion is therefore a clique of the "motion graph" whose edges join
// devices within distance 2r at both ends of the window, and the maximal
// motions of the paper's Algorithm 2 are its maximal cliques. The package
// enumerates them with Bron–Kerbosch with pivoting; its tests keep the
// paper's sliding-window enumeration as the reference it is checked
// against.
package motion

import (
	"errors"
	"fmt"

	"anomalia/internal/space"
)

// MaxRadius is the exclusive upper bound 1/4 the paper imposes on the
// consistency impact radius r (Definition 1).
const MaxRadius = 0.25

var (
	// ErrMismatchedStates is returned when the two states of a pair differ
	// in device count or dimension.
	ErrMismatchedStates = errors.New("motion: states differ in size or dimension")
	// ErrRadius is returned for a consistency radius outside [0, 1/4).
	ErrRadius = errors.New("motion: radius outside [0, 1/4)")
)

// ValidateRadius checks r against the paper's r ∈ [0, 1/4) requirement.
func ValidateRadius(r float64) error {
	if r < 0 || r >= MaxRadius {
		return fmt.Errorf("r = %v: %w", r, ErrRadius)
	}
	return nil
}

// Pair holds the two successive system states S_{k-1} and S_k delimiting
// the observation window [k-1, k].
type Pair struct {
	Prev *space.State
	Cur  *space.State
}

// NewPair validates that both states describe the same device population.
func NewPair(prev, cur *space.State) (*Pair, error) {
	if prev == nil || cur == nil {
		return nil, fmt.Errorf("nil state: %w", ErrMismatchedStates)
	}
	if prev.Len() != cur.Len() || prev.Dim() != cur.Dim() {
		return nil, fmt.Errorf("prev %dx%d vs cur %dx%d: %w",
			prev.Len(), prev.Dim(), cur.Len(), cur.Dim(), ErrMismatchedStates)
	}
	return &Pair{Prev: prev, Cur: cur}, nil
}

// N returns the number of devices.
func (p *Pair) N() int { return p.Prev.Len() }

// Dim returns the dimension of the QoS space.
func (p *Pair) Dim() int { return p.Prev.Dim() }

// Adjacent reports whether devices i and j are within uniform-norm
// distance 2r of each other at both times — the edge relation of the
// motion graph. Every device is adjacent to itself.
func (p *Pair) Adjacent(i, j int, r float64) bool {
	return p.Prev.Dist(i, j) <= 2*r && p.Cur.Dist(i, j) <= 2*r
}

// ConsistentAt reports whether ids form an r-consistent set (Definition 1)
// in state s: the bounding box of their positions has side at most 2r in
// every dimension, which for the uniform norm is equivalent to all
// pairwise distances being at most 2r.
func ConsistentAt(s *space.State, ids []int, r float64) bool {
	if len(ids) <= 1 {
		return true
	}
	d := s.Dim()
	first := s.At(ids[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, first)
	copy(hi, first)
	for _, id := range ids[1:] {
		p := s.At(id)
		for i := 0; i < d; i++ {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
			if hi[i]-lo[i] > 2*r {
				return false
			}
		}
	}
	return true
}

// ConsistentMotion reports whether ids have an r-consistent motion in the
// window (Definition 3): r-consistent at both times.
func (p *Pair) ConsistentMotion(ids []int, r float64) bool {
	return ConsistentAt(p.Prev, ids, r) && ConsistentAt(p.Cur, ids, r)
}

// Dense reports whether a motion of the given size is τ-dense
// (Definition 4): |B| > τ.
func Dense(size, tau int) bool { return size > tau }

// DenseOf filters a family of motions, keeping the τ-dense ones.
func DenseOf(motions [][]int, tau int) [][]int {
	var out [][]int
	for _, m := range motions {
		if Dense(len(m), tau) {
			out = append(out, m)
		}
	}
	return out
}
