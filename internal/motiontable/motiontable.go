// Package motiontable interns the dense motions of one observation
// window, so an encoder writes each distinct motion once, in a
// window-level table, and refers to it by index. The window record of
// anomalia.Outcome and the directory wire's decision responses both
// encode through it.
package motiontable

import "slices"

// sliceKey identifies a non-empty slice by its first element and its
// length: two slices with the same key hold the same elements.
type sliceKey[T any] struct {
	first *T
	n     int
}

// Table is the interning scratch of one encoded window. Lookups by
// slice identity catch the sharing the characterizer produces (one
// family's decisions share their dense motions, families share
// motions); the content lookup behind them makes the table, and so
// the encoding, depend on the motions' values alone.
//
// The zero value is an empty table. Reset empties it and keeps its
// capacity, so a pooled table costs nothing per window once warm.
type Table struct {
	motions  [][]int        // the table, in first-appearance order
	refs     []int          // every family's refs, back to back
	next     []int          // next table index with the same hash, -1 ends
	byHash   map[uint64]int // content hash → 1 + newest table index
	byMotion map[sliceKey[int]]int
	byFamily map[sliceKey[[]int]][]int
}

// Motions returns the table: each distinct motion once, in the order
// Refs first met it. It aliases the interned slices and is valid until
// Reset.
func (t *Table) Motions() [][]int { return t.motions }

// Refs returns the table indices of dense, adding the motions the table
// lacks. The result is shared by every call with the same dense slice;
// treat it as read-only. It is valid until Reset.
func (t *Table) Refs(dense [][]int) []int {
	if len(dense) == 0 {
		return nil
	}
	if t.byFamily == nil {
		t.byHash = map[uint64]int{}
		t.byMotion = map[sliceKey[int]]int{}
		t.byFamily = map[sliceKey[[]int]][]int{}
	}
	key := sliceKey[[]int]{&dense[0], len(dense)}
	if refs, ok := t.byFamily[key]; ok {
		return refs
	}
	start := len(t.refs)
	for _, m := range dense {
		t.refs = append(t.refs, t.index(m))
	}
	refs := t.refs[start:len(t.refs):len(t.refs)]
	t.byFamily[key] = refs
	return refs
}

// index returns m's table index, adding m if no equal motion is there.
func (t *Table) index(m []int) int {
	var key sliceKey[int]
	if len(m) > 0 {
		key = sliceKey[int]{&m[0], len(m)}
		if i, ok := t.byMotion[key]; ok {
			return i
		}
	}
	h := Hash(m)
	i := t.byHash[h] - 1
	for i >= 0 && !slices.Equal(t.motions[i], m) {
		i = t.next[i]
	}
	if i < 0 {
		i = len(t.motions)
		t.motions = append(t.motions, m)
		t.next = append(t.next, t.byHash[h]-1)
		t.byHash[h] = i + 1
	}
	if len(m) > 0 {
		t.byMotion[key] = i
	}
	return i
}

// Reset drops every reference into the encoded window and keeps the
// table's capacity.
func (t *Table) Reset() {
	clear(t.motions)
	t.motions = t.motions[:0]
	t.refs = t.refs[:0]
	t.next = t.next[:0]
	clear(t.byHash)
	clear(t.byMotion)
	clear(t.byFamily)
}

// Hash is FNV-1a over the ids' 64-bit values.
func Hash(ids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range ids {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}
