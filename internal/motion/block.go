package motion

import (
	"math"

	"anomalia/internal/slab"
)

// This file holds what every production build shares: the window's
// flattened coordinates, and the block accept of the grid builds.
//
// Definition 1 makes r-consistency a box test: a set is r-consistent
// exactly when its bounding box has side at most 2r on every axis. So
// when the members of two grid cells fit one such box at k-1 and at k,
// the block of all their pairs is one r-consistent motion and every
// pair in it is an edge — the build adds the block by OR-ing a member
// mask into each row instead of testing pair by pair. The accept is
// exact in floating point: for a pair inside the union box,
// fl(hi-lo) >= |fl(a-c)| because rounded subtraction is monotone, so a
// box side within 2r puts every pair's per-axis distance within 2r, the
// same comparison the per-pair test makes. Blocks that fail the box
// test fall back to per-pair tests. A massive event's devices (a
// DSLAM's, restriction R2) are built to pass it, which turns the
// clustered window's O(pairs) build into O(cells + rows·words). Only
// crowded cells are boxed (blockMinMembers): a window of scattered
// devices has few pairs per cell pair to save, so it skips the boxes
// and their memory traffic altogether.

// blockMinMembers is the member count from which a cell gets a box and
// its blocks are tested whole: two such cells hold at least 64 pairs —
// one bitset word of them. Below it, per-pair tests cost no more than
// computing and reading the boxes would.
const blockMinMembers = 8

// flatWindow is the window's coordinates copied per vertex into one
// slab — every vertex's k-1 position, then every vertex's k position,
// in local-index order — so the builds scan contiguous memory instead
// of chasing device ids through the two states. One slab serves every
// build path.
type flatWindow struct {
	dim   int
	lim   float64 // the 2r adjacency threshold
	prevF []float64
	curF  []float64
	slab  []float64 // prevF then curF
}

// flatten flattens the positions of g's vertices into w's slab.
func (w *flatWindow) flatten(g *Graph) *flatWindow {
	m, d := len(g.ids), g.pair.Dim()
	w.slab = slab.Of(w.slab, 2*m*d)
	w.dim, w.lim, w.prevF, w.curF = d, 2*g.r, w.slab[:m*d:m*d], w.slab[m*d:]
	for li, id := range g.ids {
		copy(w.prevF[li*d:(li+1)*d], g.pair.Prev.At(id))
		copy(w.curF[li*d:(li+1)*d], g.pair.Cur.At(id))
	}
	return w
}

// adjacent is the edge test over the flattened coordinates: uniform-norm
// distance <= 2r at both times, with per-axis early exit. Semantics
// match Pair.Adjacent exactly (an axis never rejects on NaN in either
// formulation).
func (w *flatWindow) adjacent(a, c int32) bool {
	d := w.dim
	pa, pc := int(a)*d, int(c)*d
	for k := 0; k < d; k++ {
		delta := w.prevF[pa+k] - w.prevF[pc+k]
		if delta < 0 {
			delta = -delta
		}
		if delta > w.lim {
			return false
		}
	}
	for k := 0; k < d; k++ {
		delta := w.curF[pa+k] - w.curF[pc+k]
		if delta < 0 {
			delta = -delta
		}
		if delta > w.lim {
			return false
		}
	}
	return true
}

// cellBlocks decides and fills the cell-pair blocks of a grid walk:
// each crowded cell's member bounding box at both times, and the member
// masks of the cells whose accepted blocks fill rows by words.
type cellBlocks struct {
	w      *flatWindow
	locals *cellLocals
	// boxAt[c] is crowded cell c's slot in box, -1 for any other cell;
	// empty when no cell is crowded.
	boxAt []int32
	// box holds 4·dim floats per slot: the low then the high corner of
	// the members' box at k-1, then the same at k. NaN coordinates are
	// left out, exactly as the per-pair test never rejects on them.
	box []float64
	// maskOff[c] is the offset of cell c's member mask in masks (-1
	// until built; empty until the first mask); the mask covers the
	// words from the cell's first to its last member.
	maskOff []int32
	masks   []uint64
}

// init prepares cb, over its recycled arrays, for the blocks of the
// walk whose cells locals lists: a box per crowded cell.
func (cb *cellBlocks) init(w *flatWindow, locals *cellLocals) *cellBlocks {
	cb.w, cb.locals = w, locals
	cb.boxAt, cb.maskOff, cb.masks = cb.boxAt[:0], cb.maskOff[:0], slab.Of(cb.masks, 0)
	cells := len(locals.off) - 1
	crowded := 0
	for c := 0; c < cells; c++ {
		if len(locals.row(c)) >= blockMinMembers {
			crowded++
		}
	}
	if crowded == 0 {
		return cb
	}
	cb.boxAt = slab.Of(cb.boxAt, cells)
	cb.box = slab.Of(cb.box, crowded*4*w.dim)
	slot := int32(0)
	for c := range cb.boxAt {
		cb.boxAt[c] = -1
		if len(locals.row(c)) >= blockMinMembers {
			cb.boxAt[c] = slot
			cb.boxCell(c, int(slot))
			slot++
		}
	}
	return cb
}

// boxCell computes cell c's member box into slot s.
func (cb *cellBlocks) boxCell(c, s int) {
	d := cb.w.dim
	bx := cb.box[s*4*d : (s+1)*4*d]
	for k := 0; k < d; k++ {
		bx[k], bx[d+k] = math.Inf(1), math.Inf(-1)
		bx[2*d+k], bx[3*d+k] = math.Inf(1), math.Inf(-1)
	}
	for _, v := range cb.locals.row(c) {
		p := cb.w.prevF[int(v)*d : int(v+1)*d]
		q := cb.w.curF[int(v)*d : int(v+1)*d]
		for k := 0; k < d; k++ {
			if p[k] < bx[k] {
				bx[k] = p[k]
			}
			if p[k] > bx[d+k] {
				bx[d+k] = p[k]
			}
			if q[k] < bx[2*d+k] {
				bx[2*d+k] = q[k]
			}
			if q[k] > bx[3*d+k] {
				bx[3*d+k] = q[k]
			}
		}
	}
}

// accept reports whether cells a and c (a == c for a cell with itself)
// are both crowded and their members fit one box of side 2r on every
// axis at both times — the Definition 1 test, which makes every pair of
// the block an edge.
func (cb *cellBlocks) accept(a, c int) bool {
	if len(cb.boxAt) == 0 {
		return false
	}
	sa, sc := int(cb.boxAt[a]), int(cb.boxAt[c])
	if sa < 0 || sc < 0 {
		return false
	}
	d := cb.w.dim
	ba := cb.box[sa*4*d : (sa+1)*4*d]
	bc := cb.box[sc*4*d : (sc+1)*4*d]
	for t := 0; t < 4*d; t += 2 * d {
		for k := t; k < t+d; k++ {
			lo, hi := ba[k], ba[d+k]
			if bc[k] < lo {
				lo = bc[k]
			}
			if bc[d+k] > hi {
				hi = bc[d+k]
			}
			if hi-lo > cb.w.lim {
				return false
			}
		}
	}
	return true
}

// edges returns the edge count of block (a, c).
func (cb *cellBlocks) edges(a, c int) int {
	na := len(cb.locals.row(a))
	if a == c {
		return na * (na - 1) / 2
	}
	return na * len(cb.locals.row(c))
}

// testBlock distance-tests every pair of cells a and c (a == c for a
// cell with itself) and calls edge for each adjacent one.
func (cb *cellBlocks) testBlock(a, c int, edge func(va, vc int32)) {
	la := cb.locals.row(a)
	if a == c {
		for i, va := range la {
			for _, vc := range la[i+1:] {
				if cb.w.adjacent(va, vc) {
					edge(va, vc)
				}
			}
		}
		return
	}
	for _, va := range la {
		for _, vc := range cb.locals.row(c) {
			if cb.w.adjacent(va, vc) {
				edge(va, vc)
			}
		}
	}
}

// fill adds every pair of the accepted block (a, c) to the block of g's
// dense component k, which holds both cells: each member of one cell
// gets the other cell's rank mask, and a cell paired with itself then
// drops each row's self bit.
func (cb *cellBlocks) fill(g *Graph, k, a, c int) {
	la := cb.locals.row(a)
	if a == c {
		cb.orInto(g, k, la, a)
		for _, v := range la {
			r := int(g.cs.rank[v])
			g.rowWords(k, r)[r/64] &^= 1 << uint(r%64)
		}
		return
	}
	cb.orInto(g, k, la, c)
	cb.orInto(g, k, cb.locals.row(c), a)
}

// orInto adds cell c's members to the rows of every vertex in rows: by
// words through c's rank mask when the mask is shorter than the member
// list, bit by bit otherwise (a cell whose few members are far apart in
// rank order).
func (cb *cellBlocks) orInto(g *Graph, k int, rows []int32, c int) {
	rank := g.cs.rank
	lc := cb.locals.row(c)
	w0 := int(rank[lc[0]]) / 64 // cell members ascend in local, so in rank, order
	span := int(rank[lc[len(lc)-1]])/64 - w0 + 1
	if span >= len(lc) {
		for _, v := range rows {
			row := g.rowWords(k, int(rank[v]))
			for _, u := range lc {
				ru := int(rank[u])
				row[ru/64] |= 1 << uint(ru%64)
			}
		}
		return
	}
	mask := cb.mask(rank, c, w0, span)
	for _, v := range rows {
		row := g.rowWords(k, int(rank[v]))[w0 : w0+span]
		for i, w := range mask {
			row[i] |= w
		}
	}
}

// mask returns cell c's rank mask over words [w0, w0+span), building it
// on first use.
func (cb *cellBlocks) mask(rank []int32, c, w0, span int) []uint64 {
	if len(cb.maskOff) == 0 {
		cb.maskOff = slab.Of(cb.maskOff, len(cb.locals.off)-1)
		for i := range cb.maskOff {
			cb.maskOff[i] = -1
		}
	}
	if off := cb.maskOff[c]; off >= 0 {
		return cb.masks[off : int(off)+span]
	}
	off := len(cb.masks)
	cb.maskOff[c] = int32(off)
	cb.masks = append(cb.masks, make([]uint64, span)...)
	mask := cb.masks[off : off+span]
	for _, u := range cb.locals.row(c) {
		r := int(rank[u])
		mask[r/64-w0] |= 1 << uint(r%64)
	}
	return mask
}
