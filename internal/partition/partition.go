// Package partition implements the anomaly partitions of Definition 6:
// partitions of the abnormal set A_k into disjoint r-consistent motions
// whose sparse blocks can neither assemble into a dense motion (C1) nor
// extend a dense block (C2).
//
// It provides the paper's Algorithm 1 (greedy construction, Lemma 2), a
// validator for C1/C2, an exhaustive enumerator of all anomaly partitions,
// and the resulting omniscient-observer oracle that classifies every
// abnormal device into M_k (massive in every partition), I_k (isolated in
// every partition) or U_k (unresolved, Definition 8). The oracle is the
// ground truth against which the local conditions of Section V are tested.
package partition

import (
	"errors"
	"fmt"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
)

// Partition is a partition of the abnormal device set into blocks
// (anomalies). Blocks hold sorted device ids.
type Partition [][]int

var (
	// ErrNotPartition is returned when blocks are empty, overlap, or do
	// not cover the abnormal set.
	ErrNotPartition = errors.New("partition: blocks do not partition the abnormal set")
	// ErrNotMotion is returned when a block is not an r-consistent motion.
	ErrNotMotion = errors.New("partition: block is not an r-consistent motion")
	// ErrC1 is returned when a subset of the sparse blocks forms a τ-dense
	// motion (condition C1 of Definition 6).
	ErrC1 = errors.New("partition: sparse blocks contain a dense motion (C1)")
	// ErrC2 is returned when a sparse device can extend a dense block into
	// an r-consistent motion (condition C2 of Definition 6).
	ErrC2 = errors.New("partition: sparse device extends a dense block (C2)")
	// ErrSearchSpace is returned when enumeration exceeds its node budget.
	ErrSearchSpace = errors.New("partition: enumeration exceeded its search budget")
	// ErrEmptyAbnormal is returned when the abnormal set is empty.
	ErrEmptyAbnormal = errors.New("partition: empty abnormal set")
)

// Canonical sorts each block and orders blocks deterministically,
// returning p for chaining.
func (p Partition) Canonical() Partition {
	for i := range p {
		p[i] = sets.Canon(p[i])
	}
	sets.SortSets(p)
	return p
}

// Equal reports whether two canonical partitions have identical blocks.
func (p Partition) Equal(o Partition) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if !sets.EqualInts(p[i], o[i]) {
			return false
		}
	}
	return true
}

// Validate checks that p is an anomaly partition of abnormal (Definition
// 6): non-empty disjoint blocks covering abnormal, every block an
// r-consistent motion, and conditions C1 and C2.
//
// C1 reduces to "no τ-dense motion inside the union of sparse blocks" and
// C2 to "no single sparse device is motion-adjacent to every member of a
// dense block": both reductions follow from r-consistency being closed
// under subsets.
func Validate(pair *motion.Pair, p Partition, abnormal []int, r float64, tau int) error {
	abnormal = sets.Canon(sets.CloneInts(abnormal))

	// Structural partition checks.
	seen := sets.NewBits(pair.N())
	count := 0
	for _, b := range p {
		if len(b) == 0 {
			return fmt.Errorf("empty block: %w", ErrNotPartition)
		}
		for _, id := range b {
			if !sets.ContainsInt(abnormal, id) {
				return fmt.Errorf("device %d not abnormal: %w", id, ErrNotPartition)
			}
			if seen.Has(id) {
				return fmt.Errorf("device %d in two blocks: %w", id, ErrNotPartition)
			}
			seen.Add(id)
			count++
		}
	}
	if count != len(abnormal) {
		return fmt.Errorf("blocks cover %d of %d devices: %w", count, len(abnormal), ErrNotPartition)
	}

	// Every block must be an r-consistent motion.
	for _, b := range p {
		if !pair.ConsistentMotion(b, r) {
			return fmt.Errorf("block %v: %w", b, ErrNotMotion)
		}
	}

	// Split blocks into sparse and dense.
	var sparseUnion []int
	var dense [][]int
	for _, b := range p {
		if motion.Dense(len(b), tau) {
			dense = append(dense, b)
		} else {
			sparseUnion = append(sparseUnion, b...)
		}
	}
	sparseUnion = sets.Canon(sparseUnion)

	// C1: no dense motion within the union of sparse blocks, i.e. no
	// maximal motion of their graph is dense. The smallest device in a
	// dense motion leads the first dense one in lexicographic order.
	if len(sparseUnion) > tau {
		for _, m := range motion.NewGraph(pair, sparseUnion, r).MaximalMotions() {
			if motion.Dense(len(m), tau) {
				return fmt.Errorf("device %d lies in a dense motion of sparse blocks: %w", m[0], ErrC1)
			}
		}
	}

	// C2: no sparse device extends a dense block.
	for _, db := range dense {
		for _, x := range sparseUnion {
			ext := append(sets.CloneInts(db), x)
			if pair.ConsistentMotion(ext, r) {
				return fmt.Errorf("device %d extends dense block %v: %w", x, db, ErrC2)
			}
		}
	}
	return nil
}
