package dist

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"anomalia/internal/grid"
	"anomalia/internal/motion"
	"anomalia/internal/sets"
)

// numShards fixes the shard fan-out. It is a constant, not a function of
// GOMAXPROCS, so that Stats.Messages (1 + shards contacted) is identical
// on every machine for a given window — the cost tables must reproduce.
const numShards = 16

// block is the cached answer to "which abnormal devices could be within
// 4r of a device sitting in this cell": the union of the cell lists at
// Chebyshev cell distance <= reach, plus the shard fan-out of the lookup.
type block struct {
	cands  []int // sorted candidate device ids
	shards int   // shards owning >= 1 occupied cell of the block
}

// window is the immutable per-window snapshot a Directory serves: the
// state pair, the sorted abnormal set, the spatial index of the abnormal
// k-1 positions, and the per-cell annotations aligned with the index's
// key-sorted cell order. Everything but the block-cache pointers is
// read-only after construction, and each pointer is written once (first
// writer wins), so a window is safe for any number of concurrent
// readers; Advance publishes the next window with a single pointer swap,
// leaving in-flight readers on the old one.
type window struct {
	pair     *motion.Pair
	abnormal []int       // sorted; membership and positions by binary search
	index    *grid.Index // shared spatial index of the abnormal k-1 positions
	// cellShard and blocks are aligned with the index's key-sorted cell
	// order; cellOf (the index's own id→cell record) with the sorted
	// abnormal set, so a view query never recomputes coordinates or keys.
	cellShard []uint8
	cellOf    []int32
	blocks    []atomic.Pointer[block]
}

// Directory is the persistent directory service: it indexes the abnormal
// trajectories of the current observation window by grid cell, serves
// 4r-view queries against it, and survives across windows — Advance
// patches the retained index with the window-to-window delta instead of
// rebuilding it. The per-window state lives in an immutable snapshot
// behind one atomic pointer: readers (Decide, DecideAll, View) load it
// once per operation and therefore always see one coherent window, never
// a torn mix of two, while Advance swaps in the successor.
//
// The cell geometry (side 2r from the shared grid package) is fixed at
// construction and persists across windows, so shard assignment — FNV
// over cell coordinates — and hence Stats stay a pure function of each
// window's content.
type Directory struct {
	r     float64     // consistency impact radius the index serves
	geom  grid.Params // shared cell geometry: side 2r (one spanning cell when r = 0)
	viewR float64     // view radius 4r
	reach int         // cells per axis a view can span: ceil(viewR/side)+1
	win   atomic.Pointer[window]
	built atomic.Int64
	hits  atomic.Int64
}

// AdvanceStats reports how one Advance transitioned the directory.
type AdvanceStats struct {
	// Rebuilt reports that the churn crossed the grid's rebuild
	// threshold (or left the delta path's preconditions) and the window
	// was rebuilt from scratch rather than patched.
	Rebuilt bool
	// AddedIds, RemovedIds and MovedIds count the abnormal-set diff:
	// devices entering the set, leaving it, and staying but crossing a
	// cell boundary.
	AddedIds, RemovedIds, MovedIds int
	// ChurnedCells counts cells whose membership changed, including
	// vacated ones.
	ChurnedCells int
	// RetainedBlocks counts warm 4r block caches carried over from the
	// previous window — cells whose whole reach saw no churn.
	RetainedBlocks int
}

// NewDirectory builds the directory service and indexes its first
// window: pair holds the two snapshots, abnormal is A_k, and r is the
// consistency impact radius the index serves (the paper's r in
// [0, 1/4)). The cell geometry comes from the shared grid package —
// side 2r, so a 4r view spans two cells per axis; the degenerate r = 0
// keeps one cell spanning E and views shrink to exactly-coincident
// devices. Shards own occupied cells by key hash, so the shard fan-out
// (and hence Stats) is a pure function of the window. Subsequent
// windows arrive via Advance.
func NewDirectory(pair *motion.Pair, abnormal []int, r float64) (*Directory, error) {
	if pair == nil {
		return nil, fmt.Errorf("nil pair: %w", ErrConfig)
	}
	if err := motion.ValidateRadius(r); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrConfig)
	}
	ids, err := canonAbnormal(pair, abnormal)
	if err != nil {
		return nil, err
	}
	geom := grid.ForRadius(r)
	d := &Directory{
		r:     r,
		geom:  geom,
		viewR: 4 * r,
		// ceil(viewR/side) cells in exact arithmetic, plus one cell of
		// floating-point margin: a quotient within an ulp of a cell
		// boundary can shift a computed cell by one, and a view member
		// silently dropped here would break the verdict-identity
		// guarantee the agreement tests check.
		reach: int(math.Ceil(4*r/geom.Side)) + 1,
	}
	d.win.Store(d.freshWindow(pair, ids, grid.New(pair.Prev, ids, geom)))
	return d, nil
}

// canonAbnormal clones the abnormal set into canonical form and
// validates it against the pair's population — one fused pass when the
// input is already canonical (every production caller's case), so the
// advance hot path pays a clone and a scan, not a sort.
func canonAbnormal(pair *motion.Pair, abnormal []int) ([]int, error) {
	ids := sets.CloneInts(abnormal)
	n := pair.N()
	canonical := true
	prev := -1
	for _, id := range ids {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("abnormal device %d outside population of %d: %w", id, n, ErrConfig)
		}
		if id <= prev {
			canonical = false
		}
		prev = id
	}
	if !canonical {
		ids = sets.Canon(ids)
	}
	return ids, nil
}

// freshWindow assembles a window around a fully rebuilt index: every
// cell's shard is hashed anew and the block cache starts cold.
func (d *Directory) freshWindow(pair *motion.Pair, ids []int, ix *grid.Index) *window {
	cells := ix.SortedCells()
	w := &window{
		pair:      pair,
		abnormal:  ids,
		index:     ix,
		cellShard: make([]uint8, len(cells)),
		cellOf:    ix.CellIndexes(),
		blocks:    make([]atomic.Pointer[block], len(cells)),
	}
	for ci := range cells {
		w.cellShard[ci] = uint8(shardOfCoords(cells[ci].Coords))
	}
	return w
}

// Advance transitions the directory to the next observation window:
// the retained spatial index is patched with the abnormal-set diff and
// the cell moves (grid.Index.Update — falling back to a full rebuild
// past the churn threshold), surviving cells keep their shard
// assignment without rehashing, and the per-cell 4r block caches are
// carried over warm except where the cache's whole Chebyshev reach saw
// churn. moved is the delta feed: the sorted device ids whose position
// may have changed since the previous window — in the deployment model
// this is exactly the update stream the directory service receives from
// moving devices, and it is what keeps an advance sublinear in
// everything but the raw abnormal-set diff. Pass nil when the movers
// are unknown (e.g. the in-process Monitor): every indexed id's cell is
// rechecked — always correct, still sort-free. The moved contract is
// the caller's to honor: a device that changed cells but is neither
// listed nor newly abnormal keeps its stale cell.
//
// The new window is published with one atomic swap: concurrent
// Decide / DecideAll / View calls observe either the previous window or
// the new one in full, never a torn mix. Advance itself is not safe to
// call concurrently with another Advance, and callers who advance while
// decisions are in flight must keep the previous window's states intact
// until those decisions drain (the new window's states are read from
// this call on).
func (d *Directory) Advance(pair *motion.Pair, abnormal []int, moved []int) (AdvanceStats, error) {
	if pair == nil {
		return AdvanceStats{}, fmt.Errorf("nil pair: %w", ErrConfig)
	}
	old := d.win.Load()
	var ids []int
	if sets.EqualInts(abnormal, old.abnormal) && pair.N() >= old.pair.N() {
		// Steady-state membership: reuse the retained canonical set (its
		// validity against this population is implied by the size check)
		// instead of cloning and re-canonicalizing the caller's buffer —
		// and hand the index the very slice it holds, which collapses
		// the id diff to the moved feed alone.
		ids = old.abnormal
	} else {
		var err error
		if ids, err = canonAbnormal(pair, abnormal); err != nil {
			return AdvanceStats{}, err
		}
	}
	ix, us := old.index.Update(pair.Prev, ids, moved)
	st := AdvanceStats{
		Rebuilt:      us.Rebuilt,
		AddedIds:     us.Added,
		RemovedIds:   us.Removed,
		MovedIds:     us.Moved,
		ChurnedCells: len(us.ChurnedCells),
	}
	if dim := pair.Dim(); dim > 0 {
		st.ChurnedCells += len(us.VacatedCoords) / dim
	}
	if us.Rebuilt {
		d.win.Store(d.freshWindow(pair, ids, ix))
		return st, nil
	}

	cells := ix.SortedCells()
	w := &window{
		pair:     pair,
		abnormal: ids,
		index:    ix,
		cellOf:   ix.CellIndexes(),
		blocks:   make([]atomic.Pointer[block], len(cells)),
	}
	// Shards are a function of cell coordinates, and a sourced cell has
	// the old cell's exact coordinates — copy instead of rehashing. A
	// nil Sources means the cell set is unchanged (identity), so the
	// annotation array itself — read-only after construction — is
	// shared outright.
	if us.Sources == nil {
		w.cellShard = old.cellShard
	} else {
		w.cellShard = make([]uint8, len(cells))
		for ci, src := range us.Sources {
			if src >= 0 {
				w.cellShard[ci] = old.cellShard[src]
			} else {
				w.cellShard[ci] = uint8(shardOfCoords(cells[ci].Coords))
			}
		}
	}
	// Carry the warm block caches, then invalidate every cell whose 4r
	// reach saw churn: a block is the union of the cells within
	// Chebyshev reach, so it survives exactly when none of them — nor a
	// vacated cell in range — changed membership. The walk probes the
	// (2*reach+1)^d neighbourhood of each churned coordinate; when the
	// total churn coverage dwarfs the occupied-cell count — scattered
	// churn at scale, where essentially every cache would be invalidated
	// anyway — or the fan-out explodes with the dimension, carrying
	// caches isn't worth the walk: start cold instead, always correct.
	// (At coverage = 4x the cells, under 2% of scattered-churn caches
	// would survive; compact paper-R2 churn stays far below the bound.)
	dim := pair.Dim()
	fan := grid.NeighborCells(dim, d.reach, len(cells))
	if fan <= len(cells) && st.ChurnedCells*fan < 4*len(cells) {
		retained := 0
		if us.Sources == nil {
			for ci := range w.blocks {
				if b := old.blocks[ci].Load(); b != nil {
					w.blocks[ci].Store(b)
					retained++
				}
			}
		} else {
			for ci, src := range us.Sources {
				if src < 0 {
					continue
				}
				if b := old.blocks[src].Load(); b != nil {
					w.blocks[ci].Store(b)
					retained++
				}
			}
		}
		walk := ix.NewNeighborWalk(d.reach)
		invalidate := func(coords []int) {
			walk.ForEach(coords, func(nci int, _ *grid.Cell) {
				if w.blocks[nci].Swap(nil) != nil {
					retained--
				}
			})
		}
		for _, nc := range us.ChurnedCells {
			invalidate(cells[nc].Coords)
		}
		for off := 0; off+dim <= len(us.VacatedCoords); off += dim {
			invalidate(us.VacatedCoords[off : off+dim])
		}
		st.RetainedBlocks = retained
	}
	d.win.Store(w)
	return st, nil
}

// Abnormal returns the sorted abnormal set of the directory's current
// window. Ownership rule (shared with motion.Graph.Ids and
// core.Characterizer.Abnormal): the slice aliases the directory's
// internal state — callers must treat it as read-only.
func (d *Directory) Abnormal() []int { return d.win.Load().abnormal }

// Radius returns the consistency impact radius the directory serves.
func (d *Directory) Radius() float64 { return d.r }

// ViewRadius returns the 4r view radius served by the directory.
func (d *Directory) ViewRadius() float64 { return d.viewR }

// CacheStats reports the block cache behaviour across the directory's
// lifetime: blocks computed (misses) and lookups answered from cache
// (hits). Co-located deciding devices share blocks, so built stays
// bounded by the number of occupied cells no matter how many devices a
// massive event touches — and Advance carries unchurned blocks across
// windows, so steady low-churn streams keep hitting warm caches.
func (d *Directory) CacheStats() (built, hits int64) {
	return d.built.Load(), d.hits.Load()
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

// blockFor returns the candidate block centered on the ci-th occupied
// cell of window w, computing and caching it on first use (first writer
// wins; every other caller counts a hit, like the sync.Map LoadOrStore
// it replaced). A device within viewR = 2*side of the center cell's
// occupants sits at most 2 cells away per axis in exact arithmetic
// (reach adds one cell of floating-point margin), so the block is the
// occupied cells at Chebyshev distance <= reach. Both computation
// strategies visit exactly those cells, so the candidates and the shard
// fan-out — hence Stats — are identical.
func (d *Directory) blockFor(w *window, ci int) *block {
	if cached := w.blocks[ci].Load(); cached != nil {
		d.hits.Add(1)
		return cached
	}
	b := &block{}
	center := w.index.CellAt(ci).Coords
	occupied := w.index.Cells()
	if grid.NeighborCells(len(center), d.reach, occupied) <= occupied {
		d.lookupBlock(w, center, b)
	} else {
		d.scanBlock(w, center, b)
	}
	slices.Sort(b.cands)
	if w.blocks[ci].CompareAndSwap(nil, b) {
		d.built.Add(1)
		return b
	}
	d.hits.Add(1)
	return w.blocks[ci].Load()
}

// lookupBlock builds a block by probing the neighbour cells of the
// center coordinates directly — O((2*reach+1)^d) binary searches,
// independent of how many cells the window occupies. Preferred whenever
// the block is smaller than the occupied-cell population.
func (d *Directory) lookupBlock(w *window, center []int, b *block) {
	var hit [numShards]bool
	w.index.ForEachNeighbor(center, d.reach, func(ci int, c *grid.Cell) {
		b.cands = append(b.cands, c.Ids...)
		hit[w.cellShard[ci]] = true
	})
	for _, h := range hit {
		if h {
			b.shards++
		}
	}
}

// scanBlock builds a block by scanning every occupied cell — the
// fallback when the neighbour-cell count explodes combinatorially with
// the dimension.
func (d *Directory) scanBlock(w *window, center []int, b *block) {
	var hit [numShards]bool
	cells := w.index.SortedCells()
	for ci := range cells {
		if grid.Chebyshev(cells[ci].Coords, center) <= d.reach {
			b.cands = append(b.cands, cells[ci].Ids...)
			hit[w.cellShard[ci]] = true
		}
	}
	for _, h := range hit {
		if h {
			b.shards++
		}
	}
}

// viewInto appends the 4r view of abnormal device j — known to sit at
// position pos of window w's sorted abnormal set — to dst and returns
// the extended slice with the communication bill. The batched DecideRange
// passes a recycled scratch buffer; View passes nil and gets a fresh
// slice sized to the candidate block.
func (d *Directory) viewInto(w *window, j, pos int, dst []int) ([]int, Stats) {
	b := d.blockFor(w, int(w.cellOf[pos]))
	if dst == nil {
		dst = make([]int, 0, len(b.cands))
	}
	start := len(dst)
	for _, i := range b.cands {
		if w.pair.Prev.Dist(i, j) <= d.viewR && w.pair.Cur.Dist(i, j) <= d.viewR {
			dst = append(dst, i)
		}
	}
	size := len(dst) - start
	st := Stats{
		Messages:     1 + b.shards,
		Trajectories: size - 1,
		ViewSize:     size,
	}
	return dst, st
}

// View returns the 4r view of abnormal device j in the current window:
// every indexed device within uniform-norm distance 4r of j at both
// window endpoints (j included), plus the communication bill of
// fetching it. The paper's locality result guarantees this view
// suffices to characterize j.
func (d *Directory) View(j int) ([]int, Stats, error) {
	w := d.win.Load()
	pos, ok := slices.BinarySearch(w.abnormal, j)
	if !ok {
		return nil, Stats{}, fmt.Errorf("device %d: %w", j, ErrUnknownDevice)
	}
	view, st := d.viewInto(w, j, pos, nil)
	return view, st, nil
}
