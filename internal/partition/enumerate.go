package partition

import (
	"fmt"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
)

// DefaultBudget bounds the number of recursion nodes the exhaustive
// enumerator may visit. Anomaly-partition counts grow like Bell numbers,
// so exhaustive enumeration is only intended for the oracle on small
// configurations (|A_k| up to ~12).
const DefaultBudget = 5_000_000

// ForEachPartition enumerates every anomaly partition (Definition 6) of
// abnormal and calls fn on each; fn returning false stops early. The
// partition passed to fn is reused across calls — clone it to retain it.
//
// Enumeration walks all partitions of the abnormal set into cliques of the
// motion graph (each block is created when its smallest member is placed,
// so every clique partition is visited exactly once) and filters by C1/C2.
// It returns ErrSearchSpace if more than budget nodes are visited
// (DefaultBudget when budget <= 0).
func ForEachPartition(pair *motion.Pair, abnormal []int, r float64, tau int, budget int, fn func(Partition) bool) error {
	ids := sets.Canon(sets.CloneInts(abnormal))
	if len(ids) == 0 {
		return ErrEmptyAbnormal
	}
	if err := motion.ValidateRadius(r); err != nil {
		return err
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	g := motion.NewGraph(pair, ids, r)

	e := &enumerator{
		pair:    pair,
		g:       g,
		motions: g.MaximalMotions(),
		ids:     ids,
		r:       r,
		tau:     tau,
		budget:  budget,
		fn:      fn,
	}
	e.recurse(0)
	if e.exceeded {
		return fmt.Errorf("budget %d: %w", budget, ErrSearchSpace)
	}
	return nil
}

type enumerator struct {
	pair *motion.Pair
	g    *motion.Graph
	// motions are the graph's maximal motions, enumerated once for every
	// candidate partition's C1 check.
	motions  [][]int
	ids      []int
	r        float64
	tau      int
	budget   int
	fn       func(Partition) bool
	blocks   [][]int
	exceeded bool
	stopped  bool
}

// recurse assigns ids[i:] to blocks; blocks created in order of their
// smallest member so each clique partition appears once.
func (e *enumerator) recurse(i int) {
	if e.exceeded || e.stopped {
		return
	}
	e.budget--
	if e.budget < 0 {
		e.exceeded = true
		return
	}
	if i == len(e.ids) {
		p := make(Partition, len(e.blocks))
		for bi, b := range e.blocks {
			p[bi] = sets.Canon(sets.CloneInts(b))
		}
		if e.checkC1C2(p) {
			if !e.fn(p) {
				e.stopped = true
			}
		}
		return
	}
	id := e.ids[i]
	// Join an existing block if adjacent to all its members.
	for bi := range e.blocks {
		ok := true
		for _, member := range e.blocks[bi] {
			if !e.g.Adjacent(id, member) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		e.blocks[bi] = append(e.blocks[bi], id)
		e.recurse(i + 1)
		e.blocks[bi] = e.blocks[bi][:len(e.blocks[bi])-1]
		if e.exceeded || e.stopped {
			return
		}
	}
	// Open a new block.
	e.blocks = append(e.blocks, []int{id})
	e.recurse(i + 1)
	e.blocks = e.blocks[:len(e.blocks)-1]
}

// checkC1C2 verifies conditions C1 and C2 of Definition 6 for a clique
// partition (structural validity holds by construction).
func (e *enumerator) checkC1C2(p Partition) bool {
	var sparseUnion []int
	var dense [][]int
	for _, b := range p {
		if motion.Dense(len(b), e.tau) {
			dense = append(dense, b)
		} else {
			sparseUnion = append(sparseUnion, b...)
		}
	}
	sparseUnion = sets.Canon(sparseUnion)
	// C1: a dense motion inside the sparse union extends to a maximal
	// motion keeping more than τ members there, and a maximal motion's
	// members there form a motion.
	for _, m := range e.motions {
		if motion.Dense(len(sets.IntersectInts(m, sparseUnion)), e.tau) {
			return false
		}
	}
	for _, db := range dense {
		for _, x := range sparseUnion {
			extendable := true
			for _, member := range db {
				if !e.g.Adjacent(x, member) {
					extendable = false
					break
				}
			}
			if extendable {
				return false
			}
		}
	}
	return true
}
