// Package grid provides the shared spatial cell index every
// neighbourhood computation in the module derives from the consistency
// impact radius r: uniform cells of side 2r over the QoS hypercube
// E = [0,1]^d.
//
// With the uniform norm, two positions at distance <= 2r land in the
// same or in axis-adjacent cells, so any 2r query only has to inspect
// the 3^d cells around the query cell and any 4r view the 5^d cells —
// candidates are gathered per cell and re-checked with exact distances,
// which makes the index a pure pruning device: it can only add
// candidates, never lose one. Both motion-graph construction
// (motion.NewGraph) and the distributed directory (internal/dist) build
// on the same geometry, so their cell keys — and therefore the shard
// assignment the DistCost tables bill — agree by construction.
//
// The index is map-free and slab-allocated: cell coordinates are packed
// into fixed-width keys, the devices are sorted by key, and the whole
// index materializes as one key-sorted []Cell slab plus one shared id
// arena, one coordinate slab and one packed-key slab — a handful of
// allocations however many cells a million-device window occupies.
// Lookups are binary searches over the packed keys; the key-sorted cell
// order makes every walk deterministic by construction.
package grid

import (
	"encoding/binary"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"anomalia/internal/par"
	"anomalia/internal/slab"
	"anomalia/internal/space"
)

// Params fixes the cell geometry every consumer derives from the
// consistency impact radius: the cell side and the number of cells per
// axis over [0,1].
type Params struct {
	// Side is the cell side, normally 2r (1 when r = 0, a single cell
	// spanning E).
	Side float64
	// Res is the number of cells per axis: ceil(1/Side), at least 1.
	Res int
}

// ForRadius returns the canonical geometry for radius r: cells of side
// 2r, or one cell spanning E when r = 0 (where only exactly-coincident
// devices are within distance 2r anyway).
func ForRadius(r float64) Params { return ForSide(2 * r) }

// ForSide returns the geometry for an explicit cell side. Degenerate
// sides (<= 0 or NaN) collapse to one cell spanning E, which is always
// correct — queries re-check exact distances — just unpruned.
func ForSide(side float64) Params {
	if !(side > 0) {
		side = 1
	}
	res := int(math.Ceil(1 / side))
	if res < 1 {
		res = 1
	}
	return Params{Side: side, Res: res}
}

// Coords appends the integer cell coordinates of position p to dst and
// returns the extended slice. Coordinates are clamped into [0, Res-1]
// per axis; clamping is monotone, so it only ever merges boundary
// cells — neighbourhood queries gain candidates, never lose one, and
// the caller's exact distance filter discards the extras.
func (g Params) Coords(p space.Point, dst []int) []int {
	for _, x := range p {
		c := int(x / g.Side)
		if c < 0 {
			c = 0
		}
		if c >= g.Res {
			c = g.Res - 1
		}
		dst = append(dst, c)
	}
	return dst
}

// AppendKey appends the collision-free encoding of a coordinate vector
// (8 bytes big-endian per axis, covering the full int range so even
// degenerate radii with Res > 2^32 cannot alias cells) to dst and
// returns the extended slice. Keys of equal-dimension vectors compare
// lexicographically exactly like the vectors themselves. The same
// encoding serves sorted device-id sets (dist.DecideRange's view keys);
// the Index itself stores tighter packed keys (see keyCodec) with the
// same ordering property.
func AppendKey(dst []byte, coords []int) []byte {
	for _, x := range coords {
		dst = binary.BigEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// NeighborCells returns (2*reach+1)^dim — the cells a reach-wide
// neighbourhood walk visits — saturating at cap+1 so high dimensions
// cannot overflow. Callers compare the result against their own
// population threshold to decide between the cell walk and a scan.
func NeighborCells(dim, reach, cap int) int {
	cells := 1
	for i := 0; i < dim; i++ {
		if cells > cap {
			return cap + 1
		}
		cells *= 2*reach + 1
	}
	return cells
}

// offsetFan enumerates every coordinate offset in [-reach, reach]^dim in
// odometer order (axis 0 fastest), with all vectors backed by a single
// flat array — 2 allocations for the whole fan. fanOf builds each fan
// once; callers must bound (2*reach+1)^dim (NeighborCells) before
// asking for it.
func offsetFan(dim, reach int) [][]int {
	span := 2*reach + 1
	total := 1
	for i := 0; i < dim; i++ {
		total *= span
	}
	// flat is sized exactly, so the appends below never reallocate and
	// the returned views stay valid.
	flat := make([]int, 0, total*dim)
	out := make([][]int, 0, total)
	cur := make([]int, dim)
	for i := range cur {
		cur[i] = -reach
	}
	for {
		flat = append(flat, cur...)
		out = append(out, flat[len(flat)-dim:len(flat):len(flat)])
		i := 0
		for ; i < dim; i++ {
			cur[i]++
			if cur[i] <= reach {
				break
			}
			cur[i] = -reach
		}
		if i == dim {
			break
		}
	}
	return out
}

// fan is the offset fan of one (dim, reach): every offset in odometer
// order, and the lexicographically positive half of them, views into
// the same vectors.
type fan struct {
	all, positive [][]int
}

type fanKey struct{ dim, reach int }

// fans maps each (dim, reach) asked for to its fan. The map and the fans
// are immutable once published: a new fan is added to a copy of the map
// under fansMu, so a lookup is one atomic load and allocates nothing.
// The module asks for a handful of reaches (the graph build's, the
// directory's 4r view and the scenario's r query), so the table stays
// small.
var (
	fansMu sync.Mutex
	fans   atomic.Pointer[map[fanKey]*fan]
)

// fanOf returns the shared fan of (dim, reach), building it on the first
// request. Its vectors are read-only.
func fanOf(dim, reach int) *fan {
	k := fanKey{dim, reach}
	if m := fans.Load(); m != nil {
		if f := (*m)[k]; f != nil {
			return f
		}
	}
	fansMu.Lock()
	defer fansMu.Unlock()
	old := fans.Load()
	if old != nil && (*old)[k] != nil {
		return (*old)[k]
	}
	all := offsetFan(dim, reach)
	f := &fan{all: all, positive: make([][]int, 0, (len(all)-1)/2)}
	for _, off := range all {
		for _, x := range off {
			if x != 0 {
				if x > 0 {
					f.positive = append(f.positive, off)
				}
				break
			}
		}
	}
	m := map[fanKey]*fan{}
	if old != nil {
		m = maps.Clone(*old)
	}
	m[k] = f
	fans.Store(&m)
	return f
}

// PositiveOffsets enumerates the coordinate offsets in [-reach, reach]^dim
// whose first non-zero component is positive — exactly one of {o, -o} for
// every non-zero offset, so walking them from every cell visits each
// unordered cell pair once. It is the offset set of PairWalk, exported for
// callers that roll their own walk. The table is built once per
// (dim, reach) and shared by every caller: it and its vectors are
// read-only.
func PositiveOffsets(dim, reach int) [][]int {
	return fanOf(dim, reach).positive
}

// Chebyshev returns the Chebyshev (max-axis) distance between two cell
// coordinate vectors.
func Chebyshev(a, b []int) int {
	max := 0
	for i := range a {
		delta := a[i] - b[i]
		if delta < 0 {
			delta = -delta
		}
		if delta > max {
			max = delta
		}
	}
	return max
}

// keyCodec packs integer cell coordinate vectors into fixed-width words.
// When every axis fits, the whole vector packs into a single uint64
// (axis 0 in the most significant bits); otherwise each axis takes one
// full word. In both layouts, lexicographic comparison of the packed
// words equals lexicographic comparison of the coordinate vectors —
// the property the key-sorted cell slab and its binary searches rely on
// (fuzz-tested by FuzzPackedKeyOrder).
type keyCodec struct {
	dim    int
	stride int  // packed words per key
	shift  uint // bits per axis when stride == 1; 0 in the word-per-axis layout
}

func newKeyCodec(dim, res int) keyCodec {
	b := uint(bits.Len64(uint64(res - 1)))
	if b == 0 {
		b = 1
	}
	if res >= 1 && dim >= 1 && int(b)*dim <= 64 {
		return keyCodec{dim: dim, stride: 1, shift: b}
	}
	return keyCodec{dim: dim, stride: dim}
}

// appendKey appends the packed key of coords (which must hold dim
// in-range, non-negative coordinates) to dst and returns the extension.
func (kc keyCodec) appendKey(dst []uint64, coords []int) []uint64 {
	if kc.stride == 1 {
		k := uint64(0)
		for _, c := range coords {
			k = k<<kc.shift | uint64(c)
		}
		return append(dst, k)
	}
	for _, c := range coords {
		dst = append(dst, uint64(c))
	}
	return dst
}

// Cell is one occupied cell of an Index: its integer coordinates and
// the indexed device ids whose position falls inside it, in the order
// they were indexed (ascending when the ids were). Both slices are
// views into the index's shared slabs; treat them as read-only.
type Cell struct {
	Coords []int
	Ids    []int
}

// Index buckets a subset of a state's devices by cell, as a key-sorted
// slab of cells over shared arenas. It is read-only after New returns
// and therefore safe for concurrent readers.
type Index struct {
	Params
	state *space.State
	dim   int
	kc    keyCodec
	// keys holds kc.stride packed words per cell, ascending — the whole
	// lookup structure. cells, coords and idArena are the three slabs
	// every Cell views into.
	keys    []uint64
	cells   []Cell
	coords  []int
	idArena []int
	// idCell is the cell position of each indexed id, in input order —
	// filled for free during the build, so a caller that answers queries
	// per id never recomputes coordinates or keys.
	idCell []int32
	// com is buildPacked32's composite key-and-position word per id,
	// kept only so a refill reuses it.
	com []uint64
}

// New indexes the given device ids (typically the abnormal set, sorted)
// by the cell of their position in state, in a new index.
func New(state *space.State, ids []int, p Params) *Index {
	return new(Index).Refill(state, ids, p)
}

// Refill indexes ids by the cell of their position in state over ix's
// own slabs, replacing whatever ix indexed before, and returns ix.
// Construction is a handful of allocations regardless of the
// occupied-cell count — none once the slabs fit: keys are computed in
// parallel shards, sorted, and the slabs filled in one pass. Everything
// read from the index before — cells, their coordinates and ids, the
// CellIndexes record — is valid until the next Refill.
func (ix *Index) Refill(state *space.State, ids []int, p Params) *Index {
	dim := state.Dim()
	ix.Params, ix.state, ix.dim, ix.kc = p, state, dim, newKeyCodec(dim, p.Res)
	m := len(ids)
	if m == 0 {
		ix.alloc(0, 0)
		return ix
	}
	if ix.kc.stride == 1 && ix.kc.shift*uint(dim) <= 32 && m < 1<<31 {
		ix.buildPacked32(ids)
	} else {
		ix.buildGeneral(ids)
	}
	return ix
}

// alloc sizes the slabs for n occupied cells over m indexed ids; every
// element is written by the build.
func (ix *Index) alloc(n, m int) {
	ix.keys = slab.Of(ix.keys, n*ix.kc.stride)[:0]
	ix.cells = slab.Of(ix.cells, n)
	ix.coords = slab.Of(ix.coords, n*ix.dim)[:0]
	ix.idArena = slab.Of(ix.idArena, m)
	ix.idCell = slab.Of(ix.idCell, m)
}

// openCell appends cell ci's key and coordinates to the slabs, deriving
// the coordinates from the position of device id (any member works: all
// members of a cell compute the same coordinate vector by definition).
func (ix *Index) openCell(ci, id int, key []uint64) {
	ix.keys = append(ix.keys, key...)
	start := len(ix.coords)
	ix.coords = ix.Coords(ix.state.At(id), ix.coords)
	ix.cells[ci].Coords = ix.coords[start:len(ix.coords):len(ix.coords)]
}

// minPerWorker is the smallest per-worker range of the sharded per-id
// key passes, so per-window index builds at paper scale run inline and
// spawn nothing.
const minPerWorker = 1 << 14

// buildPacked32 is the build for the common geometry where a whole key
// packs into 32 bits (e.g. any 2-d index up to 65k cells per axis): key
// and device position share one composite word, so grouping devices
// into cells is a single word sort — no comparator, no permutation
// array.
func (ix *Index) buildPacked32(ids []int) {
	m := len(ids)
	ix.com = slab.Of(ix.com, m)
	com := ix.com
	par.Ranges(m, 0, minPerWorker, func(_, lo, hi int) {
		var cbuf [space.MaxDim]int
		var kbuf [1]uint64
		for i := lo; i < hi; i++ {
			coords := ix.Coords(ix.state.At(ids[i]), cbuf[:0])
			key := ix.kc.appendKey(kbuf[:0], coords)
			com[i] = key[0]<<32 | uint64(uint32(i))
		}
	})
	parallelSortUint64(com)
	n := 0
	for s, c := range com {
		if s == 0 || c>>32 != com[s-1]>>32 {
			n++
		}
	}
	ix.alloc(n, m)
	ci, start := -1, 0
	var kbuf [1]uint64
	for s, c := range com {
		id := ids[uint32(c)]
		if s == 0 || c>>32 != com[s-1]>>32 {
			if ci >= 0 {
				ix.cells[ci].Ids = ix.idArena[start:s:s]
			}
			ci++
			start = s
			kbuf[0] = c >> 32
			ix.openCell(ci, id, kbuf[:])
		}
		ix.idArena[s] = id
		ix.idCell[uint32(c)] = int32(ci)
	}
	ix.cells[ci].Ids = ix.idArena[start:m:m]
}

// buildGeneral covers every other geometry (wide keys, huge resolutions,
// populations beyond 2^31): devices are permuted into key order — ties
// broken by input position, preserving per-cell id order — and the
// slabs filled from the permutation.
func (ix *Index) buildGeneral(ids []int) {
	m := len(ids)
	stride := ix.kc.stride
	devKeys := make([]uint64, m*stride)
	par.Ranges(m, 0, minPerWorker, func(_, lo, hi int) {
		var cbuf [space.MaxDim]int
		for i := lo; i < hi; i++ {
			coords := ix.Coords(ix.state.At(ids[i]), cbuf[:0])
			ix.kc.appendKey(devKeys[i*stride:i*stride:(i+1)*stride], coords)
		}
	})
	keyAt := func(i int32) []uint64 {
		return devKeys[int(i)*stride : (int(i)+1)*stride]
	}
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := slices.Compare(keyAt(a), keyAt(b)); c != 0 {
			return c
		}
		return int(a - b)
	})
	n := 0
	for s := range order {
		if s == 0 || !slices.Equal(keyAt(order[s]), keyAt(order[s-1])) {
			n++
		}
	}
	ix.alloc(n, m)
	ci, start := -1, 0
	for s, oi := range order {
		id := ids[oi]
		if s == 0 || !slices.Equal(keyAt(oi), keyAt(order[s-1])) {
			if ci >= 0 {
				ix.cells[ci].Ids = ix.idArena[start:s:s]
			}
			ci++
			start = s
			ix.openCell(ci, id, keyAt(oi))
		}
		ix.idArena[s] = id
		ix.idCell[oi] = int32(ci)
	}
	ix.cells[ci].Ids = ix.idArena[start:m:m]
}

// CellIndexes returns the whole id-position → cell-position record
// (aligned with the ids New indexed). The slab is the index's own storage — free to
// obtain, read-only to use.
func (ix *Index) CellIndexes() []int32 { return ix.idCell }

// Cells returns the number of occupied cells.
func (ix *Index) Cells() int { return len(ix.cells) }

// CellAt returns the i-th occupied cell in key-sorted order. The cell
// aliases the index; treat it as read-only.
func (ix *Index) CellAt(i int) *Cell { return &ix.cells[i] }

// findKey returns the position of the cell with the given packed key,
// or -1 — a binary search over the key slab.
func (ix *Index) findKey(key []uint64) int {
	if ix.kc.stride == 1 {
		if i, ok := slices.BinarySearch(ix.keys, key[0]); ok {
			return i
		}
		return -1
	}
	stride := ix.kc.stride
	lo, hi := 0, len(ix.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slices.Compare(ix.keys[mid*stride:(mid+1)*stride], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.cells) && slices.Compare(ix.keys[lo*stride:(lo+1)*stride], key) == 0 {
		return lo
	}
	return -1
}

// Find returns the position (into CellAt / SortedCells order) of the
// occupied cell with the given coordinates, or -1. Coordinates outside
// [0, Res) per axis are never occupied.
func (ix *Index) Find(coords []int) int {
	if len(coords) != ix.dim || len(ix.cells) == 0 {
		return -1
	}
	for _, c := range coords {
		if c < 0 || c >= ix.Res {
			return -1
		}
	}
	var kbuf [space.MaxDim]uint64
	return ix.findKey(ix.kc.appendKey(kbuf[:0], coords))
}

// SortedCells returns the occupied cells sorted by key (equivalently, by
// coordinate vector — the packed encoding is order-preserving). The
// slab is the index's own storage — free to obtain, read-only to use.
// PairWalk shares this order, so walks and reports enumerate cells
// identically.
func (ix *Index) SortedCells() []Cell { return ix.cells }

// PairWalk enumerates the unordered pairs of occupied cells within a
// Chebyshev reach of each other, in a form that shards across workers:
// every pair {a, b} — and every single occupied cell, as the pair
// (c, c) — is reported exactly once, to exactly one shard. The walk
// order is the index's key-sorted cell order — deterministic by
// construction, with no side lookup state: neighbour probes are binary
// searches over the shared packed-key slab. The per-shard walks are
// read-only and safe to run concurrently.
type PairWalk struct {
	ix      *Index
	reach   int
	offsets [][]int
}

// NewPairWalk prepares a cell-pair walk at the given reach.
func (ix *Index) NewPairWalk(reach int) *PairWalk {
	return &PairWalk{
		ix:      ix,
		reach:   reach,
		offsets: PositiveOffsets(ix.dim, reach),
	}
}

// Cells returns the occupied cells in the walk's order — the index's
// key-sorted slab. Pair callbacks identify cells by index into this
// slice.
func (w *PairWalk) Cells() []Cell { return w.ix.cells }

// Shard calls fn(a, b) — indices into Cells() — for every cell pair owned
// by shard: (c, c) for each owned cell, then (c, nb) for each occupied
// cell nb within reach of c whose coordinate offset from c is
// lexicographically positive. A cell is owned by shard i of n when its
// key-sorted index ≡ i (mod n), so the shards partition the pairs: the
// union over shards 0..nshards-1 covers every unordered pair exactly
// once, regardless of nshards. Concurrent Shard calls are safe.
func (w *PairWalk) Shard(shard, nshards int, fn func(a, b int)) {
	ix := w.ix
	dim := ix.dim
	var cbuf [space.MaxDim]int
	var kbuf [space.MaxDim]uint64
	coords := cbuf[:dim]
	for ci := shard; ci < len(ix.cells); ci += nshards {
		c := &ix.cells[ci]
		fn(ci, ci)
		for _, off := range w.offsets {
			ok := true
			for i := 0; i < dim; i++ {
				x := c.Coords[i] + off[i]
				if x < 0 || x >= ix.Res {
					ok = false
					break
				}
				coords[i] = x
			}
			if !ok {
				continue
			}
			if nb := ix.findKey(ix.kc.appendKey(kbuf[:0], coords)); nb >= 0 {
				fn(ci, nb)
			}
		}
	}
}

// ForEachNeighbor calls fn — with the cell's key-sorted index and the
// cell — for every occupied cell at Chebyshev cell distance <= reach of
// the given center coordinates (including the center cell itself when
// occupied), in the fan's odometer order. It probes the (2*reach+1)^d
// neighbour keys directly, skipping coordinates outside [0, Res);
// callers must bound the fan (NeighborCells) first. The fan is built on
// the first call for a (dim, reach) and shared from then on, so a warm
// call allocates nothing.
func (ix *Index) ForEachNeighbor(center []int, reach int, fn func(i int, c *Cell)) {
	dim := ix.dim
	var cbuf [space.MaxDim]int
	var kbuf [space.MaxDim]uint64
	coords := cbuf[:dim]
	for _, off := range fanOf(dim, reach).all {
		ok := true
		for i := 0; i < dim; i++ {
			c := center[i] + off[i]
			if c < 0 || c >= ix.Res {
				ok = false
				break
			}
			coords[i] = c
		}
		if !ok {
			continue
		}
		if i := ix.findKey(ix.kc.appendKey(kbuf[:0], coords)); i >= 0 {
			fn(i, &ix.cells[i])
		}
	}
}

// Within appends to dst the indexed ids at uniform-norm distance
// <= radius of position p and returns the extended slice. Ids come out
// grouped by cell in walk order, not globally sorted (the occupied-cell
// fallback below sorts its segment so both paths are deterministic).
// The candidate walk spans ceil(radius/Side)+1 cells per axis: the
// extra cell keeps the walk exhaustive under floating point, where a
// quotient within an ulp of a cell boundary can shift a computed cell
// by one. When the (2*reach+1)^d neighbour fan-out exceeds the occupied
// cells — high dimension, where the offset odometer would dwarf any
// realistic index — the query scans the occupied cells instead.
func (ix *Index) Within(p space.Point, radius float64, dst []int) []int {
	reach := int(math.Ceil(radius/ix.Side)) + 1
	dim := ix.dim
	// walkFloor keeps low-dimension queries on the walk path (stable
	// candidate order) even over sparsely occupied indexes; only the
	// exponential high-dimension fan-outs fall through to the scan.
	walkFloor := 1024
	if len(ix.cells) > walkFloor {
		walkFloor = len(ix.cells)
	}
	if NeighborCells(dim, reach, walkFloor) > walkFloor {
		start := len(dst)
		for ci := range ix.cells {
			for _, id := range ix.cells[ci].Ids {
				if space.Dist(ix.state.At(id), p) <= radius {
					dst = append(dst, id)
				}
			}
		}
		slices.Sort(dst[start:]) // cell order groups ids; sort the segment by id
		return dst
	}
	var cbuf [space.MaxDim]int
	center := ix.Coords(p, cbuf[:0])
	ix.ForEachNeighbor(center, reach, func(_ int, c *Cell) {
		for _, id := range c.Ids {
			if space.Dist(ix.state.At(id), p) <= radius {
				dst = append(dst, id)
			}
		}
	})
	return dst
}
