package dist

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"anomalia/internal/grid"
	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/slab"
	"anomalia/internal/space"
)

// numShards fixes the shard fan-out. It is a constant, not a function of
// GOMAXPROCS, so that Stats.Messages (1 + shards contacted) is identical
// on every machine for a given window — the cost tables must reproduce.
const numShards = 16

// block is the answer to "which abnormal devices are in the 4r view of
// a device sitting in this cell". Its candidates are the devices of the
// occupied cells at Chebyshev cell distance <= reach, and fill places
// each against the member box of the cell's own devices at k-1 and at
// k, as one of three kinds:
//
//   - accepted: within 4r of both box corners on every axis at both
//     times, so in every member's view;
//   - rejected: more than 4r beyond the box on some axis at either
//     time, so in no member's view, and left out of cands;
//   - remainder: everything else, listed in rest and tested per member
//     on the state's flat coordinates.
//
// A block with no remainder is its members' shared view: cands as is.
//
// The other slices are the build's working memory. A block lives in the
// decide memory of a Decider, so a later call that builds a block in the
// same slot reuses all of it.
type block struct {
	cands  []int   // sorted ids of the accepted and remainder candidates
	shards int     // shards owning >= 1 occupied cell of the block, rejected ones included
	rest   []int32 // positions in cands of the remainder candidates, ascending

	nbrs    []int32 // the neighbourhood's occupied cells, then the kept runs' ends
	merge   []int   // the merge's second buffer
	restIds []int   // the remainder candidates' ids
}

// Directory is the directory service of one observation window: the
// state pair, the sorted abnormal set A_k, a spatial index of the
// abnormal k-1 positions, and per-cell annotations aligned with the
// index's key-sorted cell order. It is read-only once built, so any
// number of decisions may read it concurrently; each DecideRange call
// builds the 4r blocks of its range's cells for itself. Its slabs and
// index are the directory's own, and Refill indexes the next window in
// them; the Decisions a directory served stay valid across it.
//
// The cell geometry (side 2r from the shared grid package) is fixed at
// construction, so shard assignment — FNV over cell coordinates — and
// hence Stats stay a pure function of the window's content.
type Directory struct {
	r     float64     // consistency impact radius the index serves
	geom  grid.Params // shared cell geometry: side 2r (one spanning cell when r = 0)
	viewR float64     // view radius 4r
	reach int         // cells per axis a view can span: ceil(viewR/side)+1

	pair     *motion.Pair
	abnormal []int       // sorted; membership and positions by binary search
	index    *grid.Index // spatial index of the abnormal k-1 positions, the directory's own
	// cellShard and boxes are aligned with the index's key-sorted cell
	// order; cellOf (the index's own id→cell record) with the sorted
	// abnormal set, so a view query never recomputes coordinates or keys.
	cellShard []uint8
	cellOf    []int32
	// boxes holds each cell's member box, 4·dim floats per cell: the
	// low then the high corner of its devices at k-1, then the same at
	// k. A NaN coordinate poisons its axis of the box.
	boxes []float64
}

// Len returns the number of indexed abnormal devices: the positions
// DecideRange takes are [0, Len()).
func (d *Directory) Len() int { return len(d.abnormal) }

// box returns occupied cell ci's member box.
func (d *Directory) box(ci int) []float64 {
	n := 4 * d.pair.Dim()
	return d.boxes[ci*n : (ci+1)*n]
}

// AdvanceStats reports how one Advance transitioned the directory.
// Every window is indexed from scratch, so Rebuilt is always true; the
// type stays only because benchmark/trace.go reads it.
type AdvanceStats struct {
	Rebuilt bool
}

// NewDirectory indexes one window: pair holds the two snapshots,
// abnormal is A_k, and r is the consistency impact radius the index
// serves (the paper's r in [0, 1/4)). The cell geometry comes from the
// shared grid package — side 2r, so a 4r view spans two cells per axis;
// the degenerate r = 0 keeps one cell spanning E and views shrink to
// exactly-coincident devices. Shards own occupied cells by key hash, so
// the shard fan-out (and hence Stats) is a pure function of the window.
// Build one directory per abnormal window: consecutive abnormal sets
// barely overlap, because a_k(j) flags a change between windows, not a
// standing state.
func NewDirectory(pair *motion.Pair, abnormal []int, r float64) (*Directory, error) {
	d := new(Directory)
	if err := d.Refill(pair, abnormal, r); err != nil {
		return nil, err
	}
	return d, nil
}

// Refill indexes the window NewDirectory would in d's own memory. It
// validates before it writes: on error d is left as it was. No
// DecideRange on d may run during it; earlier decisions stay valid.
func (d *Directory) Refill(pair *motion.Pair, abnormal []int, r float64) error {
	if pair == nil {
		return fmt.Errorf("nil pair: %w", ErrConfig)
	}
	if err := motion.ValidateRadius(r); err != nil {
		return fmt.Errorf("%v: %w", err, ErrConfig)
	}
	n := pair.N()
	for _, id := range abnormal {
		if id < 0 || id >= n {
			return fmt.Errorf("abnormal device %d outside population of %d: %w", id, n, ErrConfig)
		}
	}
	ids := canon(abnormal, d.abnormal)
	geom := grid.ForRadius(r)
	if d.index == nil {
		d.index = new(grid.Index)
	}
	ix := d.index.Refill(pair.Prev, ids, geom)
	cells := ix.SortedCells()
	*d = Directory{
		r:     r,
		geom:  geom,
		viewR: 4 * r,
		// ceil(viewR/side) cells in exact arithmetic, plus one cell of
		// floating-point margin: a quotient within an ulp of a cell
		// boundary can shift a computed cell by one, and a view member
		// silently dropped here would break the verdict-identity
		// guarantee the agreement tests check.
		reach:     int(math.Ceil(4*r/geom.Side)) + 1,
		pair:      pair,
		abnormal:  ids,
		index:     ix,
		cellShard: slab.Of(d.cellShard, len(cells)),
		cellOf:    ix.CellIndexes(),
		boxes:     cellBoxes(pair, cells, d.boxes),
	}
	for ci := range cells {
		d.cellShard[ci] = uint8(shardOfCoords(cells[ci].Coords))
	}
	return nil
}

// canon copies the abnormal set, validated already, into buf's array
// (a new one when it does not fit) in canonical form: a copy and a scan
// when the input is canonical, as every production caller's is, and a
// sort otherwise.
func canon(abnormal, buf []int) []int {
	ids := slab.Of(buf, len(abnormal))
	copy(ids, abnormal)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return sets.Canon(ids)
		}
	}
	return ids
}

// cellBoxes computes the member box of every occupied cell, in the
// layout Directory.boxes documents, into buf's array when it is large
// enough. Every element is written.
func cellBoxes(pair *motion.Pair, cells []grid.Cell, buf []float64) []float64 {
	d := pair.Dim()
	boxes := slab.Of(buf, 4*d*len(cells))
	for ci := range cells {
		box := boxes[4*d*ci : 4*d*(ci+1)]
		for mi, j := range cells[ci].Ids {
			for t, row := range [2]space.Point{pair.Prev.At(j), pair.Cur.At(j)} {
				lo, hi := box[2*t*d:(2*t+1)*d], box[(2*t+1)*d:(2*t+2)*d]
				for k, x := range row {
					switch {
					case mi == 0 || x != x:
						lo[k], hi[k] = x, x
					case x < lo[k]:
						lo[k] = x
					case x > hi[k]:
						hi[k] = x
					}
				}
			}
		}
	}
	return boxes
}

// Advance refills d with the next window at d's radius: Refill, kept
// with its three-argument signature only because benchmark/trace.go
// calls it; moved is ignored. On error d is left as it was.
func (d *Directory) Advance(pair *motion.Pair, abnormal []int, moved []int) (AdvanceStats, error) {
	if err := d.Refill(pair, abnormal, d.r); err != nil {
		return AdvanceStats{}, err
	}
	return AdvanceStats{Rebuilt: true}, nil
}

// shardOfCoords assigns a cell to its owning shard: FNV-1a over the
// collision-free byte encoding of its coordinates (grid.AppendKey),
// inlined so per-cell shard assignment allocates nothing. The hash is
// pinned byte-identical to hash/fnv over the encoded key
// (TestShardOfCoordsMatchesFNV), so Stats reproduce across builds of
// the module.
func shardOfCoords(coords []int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, x := range coords {
		v := uint64(x)
		for shift := 56; shift >= 0; shift -= 8 {
			h = (h ^ uint32(byte(v>>shift))) * prime32
		}
	}
	return int(h % numShards)
}

// buildBlock builds into b the candidate block centered on the ci-th
// occupied cell, reusing whatever memory b holds. A device within
// viewR = 2*side of the center cell's occupants sits at most 2 cells
// away per axis in exact arithmetic (reach adds one cell of
// floating-point margin), so the block is the occupied cells at
// Chebyshev distance <= reach. Both strategies visit exactly those
// cells, so the candidates and the shard fan-out — hence Stats — are
// identical.
func (d *Directory) buildBlock(ci int, b *block) {
	cell := d.index.CellAt(ci)
	occupied := d.index.Cells()
	if grid.NeighborCells(len(cell.Coords), d.reach, occupied) <= occupied {
		d.lookupBlock(cell.Coords, b)
	} else {
		d.scanBlock(cell.Coords, b)
	}
}

// lookupBlock builds a block by probing the neighbour cells of the
// center coordinates directly — O((2*reach+1)^d) binary searches,
// independent of how many cells the window occupies. Preferred whenever
// the block is smaller than the occupied-cell population.
func (d *Directory) lookupBlock(center []int, b *block) {
	cells := b.nbrs[:0]
	d.index.ForEachNeighbor(center, d.reach, func(ci int, _ *grid.Cell) {
		cells = append(cells, int32(ci))
	})
	b.nbrs = cells
	d.fill(d.index.Find(center), cells, b)
}

// scanBlock builds a block by scanning every occupied cell — the
// fallback when the neighbour-cell count explodes combinatorially with
// the dimension.
func (d *Directory) scanBlock(center []int, b *block) {
	cells := b.nbrs[:0]
	for ci, c := range d.index.SortedCells() {
		if grid.Chebyshev(c.Coords, center) <= d.reach {
			cells = append(cells, int32(ci))
		}
	}
	b.nbrs = cells
	d.fill(d.index.Find(center), cells, b)
}

// candKind is where a block puts a candidate, or a whole cell of them.
type candKind uint8

// Ordered so that a kind over both times is the max of the two per-time
// kinds.
const (
	accepted candKind = iota
	remainder
	rejected
)

// kindOf places every position in the box [xlo, xhi] — a single
// candidate when xlo and xhi are the same point — against the member box
// [lo, hi] at one time. The tests are exact in floating point for the
// reason motion's block accept is: rounded subtraction is monotone, so
// for x in [xlo, xhi] and a member coordinate y in [lo, hi],
// fl(xlo-hi) <= fl(x-y) <= fl(xhi-lo). If on every axis
// fl(xhi-lo) <= 4r and fl(xlo-hi) >= -4r, every such pair is within 4r
// there, as space.Dist measures it; if on some axis fl(xlo-hi) > 4r or
// fl(xhi-lo) < -4r, no pair is. A NaN compares false both ways, so it
// never decides a kind; a NaN-poisoned axis yields remainder.
func kindOf(xlo, xhi, lo, hi []float64, viewR float64) candKind {
	kind := accepted
	for k := range lo {
		if xlo[k]-hi[k] > viewR || xhi[k]-lo[k] < -viewR {
			return rejected
		}
		if !(xhi[k]-lo[k] <= viewR && xlo[k]-hi[k] >= -viewR) {
			kind = remainder
		}
	}
	return kind
}

// kindAt places positions spanning [plo, phi] at k-1 and [qlo, qhi] at
// k against the member box own (the cellBoxes layout): rejected at
// either time, accepted at both, remainder otherwise.
func kindAt(plo, phi, qlo, qhi, own []float64, viewR float64) candKind {
	d := len(plo)
	return max(kindOf(plo, phi, own[:d], own[d:2*d], viewR),
		kindOf(qlo, qhi, own[2*d:3*d], own[3*d:], viewR))
}

// fill builds the block of occupied cell own from the occupied cells of
// its neighbourhood. Each neighbour cell is first placed whole, its
// member box against own's: a rejected cell only counts toward the
// shard fan-out, an accepted one contributes its id list as it is, and
// a mixed one has each member placed on its own. The surviving lists,
// each ascending, merge into the sorted cands, where the remainder
// candidates are then located.
func (d *Directory) fill(own int, cells []int32, b *block) {
	dim := d.pair.Dim()
	ownBox := d.box(own)
	var hit [numShards]bool
	b.shards = 0
	bound := 0
	kept := cells[:0]
	for _, ci := range cells {
		hit[d.cellShard[ci]] = true
		nb := d.box(int(ci))
		kind := kindAt(nb[:dim], nb[dim:2*dim], nb[2*dim:3*dim], nb[3*dim:], ownBox, d.viewR)
		if kind == rejected {
			continue
		}
		bound += len(d.index.CellAt(int(ci)).Ids)
		if kind == remainder {
			ci = ^ci // mixed: place its members one by one
		}
		kept = append(kept, ci)
	}
	for _, h := range hit {
		if h {
			b.shards++
		}
	}

	// The merge alternates between two buffers; the gather starts in the
	// one that leaves the result in out.
	out := slab.Of(b.cands[:0], bound)
	src, dst := out, []int(nil)
	if len(kept) > 1 {
		b.merge = slab.Of(b.merge, bound)
		dst = b.merge
		if mergeRounds(len(kept))%2 == 1 {
			src, dst = dst, src
		}
	}
	n := 0
	restIds := b.restIds[:0]
	for ri, ci := range kept {
		if ci >= 0 {
			n += copy(src[n:], d.index.CellAt(int(ci)).Ids)
		} else {
			for _, i := range d.index.CellAt(int(^ci)).Ids {
				p, q := d.pair.Prev.At(i), d.pair.Cur.At(i)
				switch kindAt(p, p, q, q, ownBox, d.viewR) {
				case rejected:
					continue
				case remainder:
					restIds = append(restIds, i)
				}
				src[n] = i
				n++
			}
		}
		kept[ri] = int32(n) // the run's end
	}
	if len(kept) > 1 {
		mergeRuns(src[:n], dst[:n], kept)
	}
	b.cands = out[:n]
	b.restIds = restIds
	b.rest = b.rest[:0]
	if len(restIds) == 0 {
		return
	}
	slices.Sort(restIds)
	for p, i := range b.cands {
		if len(b.rest) < len(restIds) && i == restIds[len(b.rest)] {
			b.rest = append(b.rest, int32(p))
		}
	}
}

// mergeRounds is the number of rounds mergeRuns takes over runs runs:
// ceil(log2(runs)).
func mergeRounds(runs int) int { return bits.Len(uint(runs - 1)) }

// mergeRuns merges the ascending, pairwise disjoint runs of src — run i
// ending at ends[i] — in mergeRounds rounds of pairwise merges that
// alternate between src and dst, so the result lands in src after an
// even number of rounds and in dst after an odd one. ends is
// overwritten.
func mergeRuns(src, dst []int, ends []int32) {
	for len(ends) > 1 {
		next := ends[:0]
		lo := 0
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				copy(dst[lo:ends[i]], src[lo:ends[i]])
				next = append(next, ends[i])
				break
			}
			mid, hi := int(ends[i]), int(ends[i+1])
			sets.UnionIntsInto(dst[lo:lo], src[lo:mid], src[mid:hi])
			next = append(next, ends[i+1])
			lo = hi
		}
		ends = next
		src, dst = dst, src
	}
}

// appendView appends to dst the view of member j of the block's cell:
// the accepted candidates as they are, and each remainder candidate
// that passes the per-member test — uniform-norm distance <= viewR at
// both times, read straight off the states' flat rows with the
// comparison space.Dist makes. The view comes out sorted because
// cands is.
func (b *block) appendView(dst []int, pair *motion.Pair, j int, viewR float64) []int {
	prev, cur := pair.Prev.At(j), pair.Cur.At(j)
	last := 0
	for _, p := range b.rest {
		dst = append(dst, b.cands[last:p]...)
		if i := b.cands[p]; within(pair.Prev.At(i), prev, viewR) && within(pair.Cur.At(i), cur, viewR) {
			dst = append(dst, i)
		}
		last = int(p) + 1
	}
	return append(dst, b.cands[last:]...)
}

// within reports whether every axis of fl(a-b) lies in [-lim, lim]; a
// NaN axis never rejects, as in space.Dist.
func within(a, b []float64, lim float64) bool {
	for k := range a {
		if delta := a[k] - b[k]; delta > lim || delta < -lim {
			return false
		}
	}
	return true
}

// viewStats is the bill of a view of size entries fetched through b:
// one request plus one response per shard owning part of the block.
func viewStats(b *block, size int) Stats {
	return Stats{Messages: 1 + b.shards, Trajectories: size - 1, ViewSize: size}
}
