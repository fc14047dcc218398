package motion

import (
	"slices"
	"sort"
	"sync"

	"anomalia/internal/grid"
	"anomalia/internal/par"
	"anomalia/internal/sets"
	"anomalia/internal/slab"
)

// Graph is the motion graph restricted to a subset of devices (typically
// the abnormal set A_k): vertices are devices, edges join devices within
// 2r at both times. Cliques of this graph are exactly the r-consistent
// motions among the subset.
//
// Vertices are stored under local indices 0..m-1; the public API speaks
// device ids.
//
// Adjacency is stored one connected component at a time, over the
// component's ranks (Components): no edge leaves a component, so the
// window's adjacency is the disjoint union of its components'. A
// component of up to componentDenseMax vertices, or a larger one so
// edge-dense that neighbour lists would be no smaller, owns a dense
// bitset block of one s-bit row per member; all blocks share one words
// slab of Σ s·⌈s/64⌉ words, and clique enumeration runs on a block in
// place as pure word operations. Any other component keeps sorted
// neighbour-rank lists in one shared CSR arena (off/nbr), O(s + edges)
// memory — what makes million-device windows constructible at all. Both
// are read-only after construction, and every enumeration result is
// identical across them (TestSparseMatchesDense*).
//
// Bron–Kerbosch over one component (MaximalMotionsOfComponent) is the
// graph's only clique search: every motion question — M(j), W̄_k(j),
// whether a dense motion survives in a set — is answered from the
// maximal motions of the component that holds the devices asked about.
//
// A graph owns its memory — vertex ids, adjacency slabs, labelling and
// build memory — and Refill rebuilds it in place for the next window.
// The motions an enumeration returns are fresh and outlive the Refill.
type Graph struct {
	ids []int // local index -> device id, sorted
	// contiguous marks the common full-population case ids[i] == i, where
	// Local is the identity; other graphs resolve ids by binary search
	// over ids.
	contiguous bool
	r          float64
	pair       *Pair

	// cs is the component labelling the build produced.
	cs *Components
	// base locates component c's adjacency. A dense block starts at
	// words[base[c]], one ⌈s/64⌉-word row per rank. A CSR component has
	// base[c] = ^slot: rank i's sorted neighbour ranks are
	// nbr[off[slot+i]:off[slot+i+1]]. off is nil when no component
	// uses CSR rows.
	base  []int64
	words []uint64
	off   []int64
	nbr   []int32

	// comps is the labelling cs points at.
	comps Components
	// mem is the working memory of the builds, refilled by each.
	mem buildMem
}

// buildMem is the working memory of one graph build: the flattened
// window, the grid index and the walk's cell lists and blocks, the
// collect pass's per-worker edge sinks, and the counters of the
// labelling and the CSR fill.
type buildMem struct {
	win    flatWindow
	idx    grid.Index
	locals cellLocals
	cb     cellBlocks
	sinks  []edgeSink
	chunks [][]uint64 // every sink's chunks, when more than one worker collected
	united []bool
	cur    []int32
	csrCur []int64
}

// bkPool holds enumeration scratch, which has no owner: any number of
// goroutines may enumerate one read-only Graph at once.
var bkPool = sync.Pool{New: func() any { return new(bkScratch) }}

// gridBuildMinVertices is the vertex count at which NewGraph switches
// from the all-pairs scan to the grid-indexed walk. Below it the
// quadratic scan — a tight loop of uniform-norm comparisons — is
// cheaper than building the cell index for scattered devices (measured
// crossover 32-64 vertices). From it the walk wins twice: it skips
// far pairs, and a cluster's crowded cells become accepted blocks
// instead of one buffered edge per pair, which is what a 4r view of a
// mass event holds. Both collect the same edge set
// (TestNewGraphGridMatchesAllPairs).
const gridBuildMinVertices = 64

// collectParallelMin is the vertex count from which the collect pass
// shards across GOMAXPROCS workers; below it a window's walk is shorter
// than handing it to goroutines.
const collectParallelMin = 4096

// gridBuildReach is the Chebyshev cell distance the grid build pairs
// cells across. With cell side exactly 2r an edge's endpoints share a
// cell or sit in axis-adjacent cells in exact arithmetic; reach 2 keeps
// that guarantee under floating point, where a quotient within an ulp
// of a cell boundary can shift either endpoint's computed cell by one.
const gridBuildReach = 2

// gridBuildMaxRes caps the grid resolution the floating-point safety
// argument for gridBuildReach covers (quotient errors stay far below
// one cell while res*2^-52 is negligible). Radii tiny enough to exceed
// it fall back to the all-pairs build.
const gridBuildMaxRes = 1 << 25

// NewGraph builds the motion graph over the given device ids (deduplicated
// and sorted). The caller is responsible for r being valid; ids outside
// the pair's device range are ignored.
//
// Every window is built on one path. The collect pass gathers the edge
// set: vertices are bucketed into a grid of cells with side 2r over the
// k-1 positions and only pairs from nearby cells are considered, instead
// of all m^2 pairs; a cell pair whose members fit one box of side 2r at
// both times is an r-consistent block and is kept whole (block.go), the
// other pairs are distance-tested. Small or degenerate inputs use the
// plain all-pairs scan, and from collectParallelMin vertices the pass is
// sharded across GOMAXPROCS workers. A union-find over the blocks and
// edges then labels the components, and each component's adjacency is
// laid out over its ranks (see Graph). Every path tests against one
// flattened copy of the window's positions, and the adjacency relation is
// identical on every path.
func NewGraph(p *Pair, ids []int, r float64) *Graph {
	return new(Graph).Refill(p, ids, r)
}

// Refill builds NewGraph's graph over g's own memory, replacing the
// graph g held, and returns g. Everything read from g before — Ids,
// Components, Verts — is valid until the next Refill; the motions it
// enumerated stay valid.
func (g *Graph) Refill(p *Pair, ids []int, r float64) *Graph {
	g.setVertices(p, ids, r)
	m := len(g.ids)
	prm := grid.ForRadius(r)
	useGrid := m >= gridBuildMinVertices && prm.Res <= gridBuildMaxRes && gridBuildWorthwhile(p.Dim(), m)
	workers := 1
	if m >= collectParallelMin {
		workers = 0
	}
	g.build(prm, useGrid, workers, false)
	return g
}

// build runs the collect pass — the grid walk when useGrid, the striped
// all-pairs scan otherwise — on workers workers (<= 0 selects
// GOMAXPROCS) over the window flattened into g's build memory, and lays
// the collected edge set out per component; forceCSR gives every
// component CSR rows (testing hook).
func (g *Graph) build(prm grid.Params, useGrid bool, workers int, forceCSR bool) {
	w := g.mem.win.flatten(g)
	workers = par.Workers(workers, len(g.ids))
	var col collected
	if useGrid {
		col = collectGrid(g, w, prm, workers)
	} else {
		col.bufs = collectAllPairs(&g.mem, w, len(g.ids), workers)
		// An all-pairs build needs no grid memory (some 64 bytes a vertex).
		if !slab.Keep(64*uintptr(cap(g.mem.locals.loc)), 0) {
			g.mem.idx, g.mem.locals, g.mem.cb = grid.Index{}, cellLocals{}, cellBlocks{}
		}
	}
	g.layout(&col, workers, forceCSR)
}

// gridBuildWorthwhile reports whether the cell-pair walk can beat the
// all-pairs scan: the (2*reach+1)^d neighbour-offset fan-out grows
// exponentially with the dimension, so once it exceeds the vertex count
// the walk itself dominates (and at space.MaxDim it would be the whole
// build's undoing).
func gridBuildWorthwhile(dim, m int) bool {
	return grid.NeighborCells(dim, gridBuildReach, m) <= m
}

// setVertices sets up g's vertex bookkeeping over its memory.
func (g *Graph) setVertices(p *Pair, ids []int, r float64) *Graph {
	clean := slab.Of(g.ids, len(ids))[:0]
	for _, id := range ids {
		if id >= 0 && id < p.N() {
			clean = append(clean, id)
		}
	}
	clean = sets.Canon(clean)
	g.ids, g.r, g.pair = clean, r, p
	// clean is sorted, duplicate-free and non-negative, so its last
	// element equals m-1 exactly when it is 0..m-1.
	m := len(clean)
	g.contiguous = m == 0 || clean[m-1] == m-1
	return g
}

// Sparse reports whether any component stores its adjacency as CSR
// neighbour lists rather than a dense bitset block.
func (g *Graph) Sparse() bool { return len(g.off) > 0 }

// isCSR reports whether component c keeps CSR rows.
func (g *Graph) isCSR(c int) bool { return g.base[c] < 0 }

// wordsFor is the word count of one row over s ranks.
func wordsFor(s int) int { return (s + 63) / 64 }

// rowWords returns the words of rank i's row in dense component c's
// block (aliases the slab).
func (g *Graph) rowWords(c, i int) []uint64 {
	wpr := wordsFor(g.cs.Size(c))
	lo := int(g.base[c]) + i*wpr
	return g.words[lo : lo+wpr : lo+wpr]
}

// csrRow returns rank i's sorted neighbour ranks in CSR component c
// (aliases the arena; read-only).
func (g *Graph) csrRow(c, i int) sets.Sorted {
	slot := int(^g.base[c]) + i
	return sets.Sorted(g.nbr[g.off[slot]:g.off[slot+1]])
}

// blockRows returns dense component c's rows as bitsets over its ranks:
// views into the block, held in sc, that callers only read.
func (g *Graph) blockRows(sc *bkScratch, c int) []*sets.Bits {
	s := g.cs.Size(c)
	lo := int(g.base[c])
	sc.hdr, sc.rows = sets.RowViews(g.words[lo:lo+s*wordsFor(s)], s, s, sc.hdr, sc.rows)
	return sc.rows
}

// adjacentLocal reports the edge between distinct local vertices a and b.
func (g *Graph) adjacentLocal(a, b int) bool {
	c := int(g.cs.comp[a])
	if int(g.cs.comp[b]) != c {
		return false
	}
	ra, rb := int(g.cs.rank[a]), int(g.cs.rank[b])
	if g.isCSR(c) {
		return g.csrRow(c, ra).Has(int32(rb))
	}
	return g.rowWords(c, ra)[rb/64]&(1<<uint(rb%64)) != 0
}

// getScratch leases enumeration scratch; return it with putScratch.
func getScratch() *bkScratch   { return bkPool.Get().(*bkScratch) }
func putScratch(sc *bkScratch) { bkPool.Put(sc) }

// cellLocals holds the local-index lists of a walk's cells in one arena,
// aligned with PairWalk.Cells.
type cellLocals struct {
	off []int32
	loc []int32
	cur []int32 // resolve's write cursors
}

func (c *cellLocals) row(i int) []int32 { return c.loc[c.off[i]:c.off[i+1]:c.off[i+1]] }

// resolve lists the members of each of idx's cells as local indices, in
// one arena aligned with its cells, over c's own arrays. idx
// indexes the graph's ids in local order and records each one's cell,
// so a counting sort over those records lists every cell's members in
// ascending order without resolving a single id.
func (c *cellLocals) resolve(idx *grid.Index) *cellLocals {
	idCell := idx.CellIndexes()
	cells := idx.Cells()
	c.off = slab.Zeroed(c.off, cells+1)
	c.loc = slab.Of(c.loc, len(idCell))
	for _, ci := range idCell {
		c.off[ci+1]++
	}
	for ci := 0; ci < cells; ci++ {
		c.off[ci+1] += c.off[ci]
	}
	c.cur = slab.Of(c.cur, cells)
	copy(c.cur, c.off)
	for v, ci := range idCell {
		c.loc[c.cur[ci]] = int32(v)
		c.cur[ci]++
	}
	return c
}

// Ids returns the sorted device ids the graph covers. Ownership rule
// (shared with core's Characterizer.Abnormal): the slice aliases the
// graph's internal state — callers must treat it as read-only, copy
// before modifying, and not keep it past the owner's next refill.
func (g *Graph) Ids() []int { return g.ids }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// Has reports whether device id is a vertex of the graph.
func (g *Graph) Has(id int) bool {
	_, ok := g.Local(id)
	return ok
}

// Local returns the local index of device id and whether it is a vertex.
// Local indices follow sorted device-id order, so increasing local index
// means increasing id. When the graph covers a full population the
// mapping is the identity; subsets answer by binary search over the
// sorted ids.
func (g *Graph) Local(id int) (int, bool) {
	if g.contiguous {
		if id >= 0 && id < len(g.ids) {
			return id, true
		}
		return 0, false
	}
	if li, ok := slices.BinarySearch(g.ids, id); ok {
		return li, true
	}
	return 0, false
}

// IDOf returns the device id at local index li.
func (g *Graph) IDOf(li int) int { return g.ids[li] }

// Adjacent reports whether devices a and b (device ids) are joined by an
// edge. A device is considered adjacent to itself when present.
func (g *Graph) Adjacent(a, b int) bool {
	la, ok := g.Local(a)
	if !ok {
		return false
	}
	lb, ok := g.Local(b)
	if !ok {
		return false
	}
	if la == lb {
		return true
	}
	return g.adjacentLocal(la, lb)
}

// MaximalMotions enumerates all maximal r-consistent motions among the
// graph's devices (the maximal cliques), as sorted device-id sets in
// deterministic order.
func (g *Graph) MaximalMotions() [][]int {
	var out [][]int
	for c := 0; c < g.cs.Count(); c++ {
		ids, _ := g.MaximalMotionsOfComponent(c, g.cs)
		out = append(out, ids...)
	}
	sets.SortSets(out)
	return out
}

// MaximalMotionsContaining returns the maximal r-consistent motions
// that include device j — the family M(j) built by the paper's
// Algorithm 2 — in lexicographic order. A motion containing j never
// leaves j's connected component, so M(j) is the enumeration of that
// component filtered by membership of j; each call enumerates the whole
// component, so a caller that needs every member's family should call
// MaximalMotionsOfComponent once instead. Returns nil when j is not a
// vertex.
func (g *Graph) MaximalMotionsContaining(j int) [][]int {
	lj, ok := g.Local(j)
	if !ok {
		return nil
	}
	ids, bits := g.MaximalMotionsOfComponent(g.cs.Of(lj), g.cs)
	var out [][]int
	for i, b := range bits {
		if b.Has(int(g.cs.rank[lj])) {
			out = append(out, ids[i])
		}
	}
	return out
}

// sortMotionFamily sorts both motion representations together, in the id
// sets' lexicographic order (the deterministic order SortSets
// establishes). Families are typically a handful of motions; insertion
// sort keeps the common case allocation-free (sort.Sort would
// heap-allocate the interface).
func sortMotionFamily(out *motionFamily) {
	if len(out.ids) > 32 {
		sort.Sort(out)
		return
	}
	for i := 1; i < len(out.ids); i++ {
		for j := i; j > 0 && out.Less(j, j-1); j-- {
			out.Swap(j, j-1)
		}
	}
}

// searchSorted returns the index of v in the sorted slice s (which must
// contain it).
func searchSorted(s sets.Sorted, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// motionFamily sorts the two motion representations in lockstep, by the
// id sets' lexicographic order (shorter first on ties of the common
// prefix — the comparator of sets.SortSets).
type motionFamily struct {
	ids     [][]int
	cliques []*sets.Bits
}

func (f *motionFamily) Len() int { return len(f.ids) }

func (f *motionFamily) Less(i, j int) bool {
	a, b := f.ids[i], f.ids[j]
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

func (f *motionFamily) Swap(i, j int) {
	f.ids[i], f.ids[j] = f.ids[j], f.ids[i]
	f.cliques[i], f.cliques[j] = f.cliques[j], f.cliques[i]
}

// bkScratch recycles the candidate/excluded bitsets and the member
// buffers of one enumeration's recursion — the dominant garbage of the
// characterization hot path before pooling. Each top-level enumeration
// owns its scratch, so concurrent enumerations over a shared graph
// never share state. Only the reported cliques escape the enumeration.
// The free-listed bitsets are resized on lease, so one scratch serves
// every component's universe and the per-vertex sub-universes of the
// CSR enumeration alike.
type bkScratch struct {
	free []*sets.Bits
	ints [][]int
	// verts buffers the sub-universe vertex list of the CSR
	// enumeration; sub holds its densified bitset rows.
	verts sets.Sorted
	sub   []*sets.Bits
	// hdr/rows hold the views blockRows puts over a dense block. They
	// alias the graph's slab, so they never enter the free list.
	hdr  []sets.Bits
	rows []*sets.Bits
}

func (s *bkScratch) get(src *sets.Bits) *sets.Bits {
	if len(s.free) == 0 {
		return src.Clone()
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	if b.Universe() != src.Universe() {
		b.Resize(src.Universe())
	}
	b.CopyFrom(src)
	return b
}

// lease returns a cleared bitset over [0, n) from the free list.
func (s *bkScratch) lease(n int) *sets.Bits {
	if len(s.free) == 0 {
		return sets.NewBits(n)
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	b.Resize(n)
	return b
}

func (s *bkScratch) put(b *sets.Bits) { s.free = append(s.free, b) }

func (s *bkScratch) getInts() []int {
	if len(s.ints) == 0 {
		return nil
	}
	buf := s.ints[len(s.ints)-1]
	s.ints = s.ints[:len(s.ints)-1]
	return buf[:0]
}

func (s *bkScratch) putInts(buf []int) { s.ints = append(s.ints, buf) }

// bkOver is Bron–Kerbosch with pivoting over the adjacency rows adj.
// r, p, x are the usual current clique / candidates / excluded sets over
// row indices. p and x are consumed by the call; r is restored. Dense
// components pass their block's rows; the CSR enumeration passes a
// densified neighbourhood subgraph, so the recursion is word operations
// in both cases.
func bkOver(adj []*sets.Bits, r, p, x *sets.Bits, sc *bkScratch, report func(*sets.Bits)) {
	// taken lists the pivots the loop moved into r in place; np and
	// xEmpty track p's size and x's emptiness across those steps.
	taken := sc.getInts()
	np, xEmpty := p.Len(), x.Empty()
	for {
		if np == 0 && xEmpty {
			report(r.Clone())
			break
		}
		// Choose the pivot u in x ∪ p maximizing |p ∩ N(u)| (Tomita). No
		// u can beat |p \ {u}| — rows carry no self bit — so the scan
		// stops at the first u that reaches it. x goes first: its members
		// can reach all of p, p's members only |p|-1. Ties may pick
		// another pivot than a full scan would, which only reorders the
		// reported cliques; every caller sorts them.
		pivot, best := -1, -1
		if !xEmpty {
			x.ForEach(func(u int) bool {
				c := p.IntersectionLen(adj[u])
				if c > best {
					best, pivot = c, u
				}
				return c < np
			})
		}
		if best < np-1 {
			p.ForEach(func(u int) bool {
				c := p.IntersectionLen(adj[u])
				if c > best {
					best, pivot = c, u
				}
				return c < np-1
			})
		}
		if best == np-1 && p.Has(pivot) {
			// The pivot is adjacent to the rest of p, so its own branch is
			// the only one and it consumes p and x: take it in place. On an
			// s-clique the whole enumeration is this loop — s intersection
			// counts, no recursion.
			r.Add(pivot)
			p.Remove(pivot)
			np--
			if !xEmpty {
				x.And(adj[pivot])
				xEmpty = x.Empty()
			}
			taken = append(taken, pivot)
			continue
		}
		cand := sc.get(p)
		if pivot >= 0 {
			cand.AndNot(adj[pivot])
		}
		members := cand.Members(sc.getInts())
		sc.put(cand)
		for _, v := range members {
			r.Add(v)
			p2 := sc.get(p)
			p2.And(adj[v])
			x2 := sc.get(x)
			x2.And(adj[v])
			bkOver(adj, r, p2, x2, sc, report)
			sc.put(p2)
			sc.put(x2)
			r.Remove(v)
			p.Remove(v)
			x.Add(v)
		}
		sc.putInts(members)
		break
	}
	for _, u := range taken {
		r.Remove(u)
	}
	sc.putInts(taken)
}
