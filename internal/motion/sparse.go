package motion

import (
	"slices"

	"anomalia/internal/grid"
	"anomalia/internal/par"
	"anomalia/internal/sets"
)

// This file is the collected half of the hybrid adjacency: the parallel
// edge collection and CSR construction (NewGraph at >=
// sparseMinVertices) and the neighbourhood-densified clique enumeration
// that keeps Bron–Kerbosch word-parallel without ever materializing
// O(m²/64) bits.
//
// Construction pipeline:
//
//  1. Test against the window's flattened coordinates (flatWindow), so
//     the inner adjacency test is a branch-cheap scan over contiguous
//     memory with per-axis early exit.
//  2. Shard the grid's cell-pair walk across workers; each worker
//     records the cell pairs that pass the block accept (block.go) and
//     distance-tests the candidate pairs of every other cell pair,
//     appending surviving edges to a private buffer (no shared state,
//     no locks).
//  3. Pick the representation from the measured edge count, blocks
//     included: windows so edge-dense that the CSR arena would be no
//     smaller than the dense bitset rows fill the rows straight from
//     the buffers and OR each block's member masks (word-parallel
//     enumeration, no per-row merge+sort); everything else merges the
//     buffers and the expanded blocks into one CSR arena — offsets plus
//     neighbours, 2 allocations regardless of m — via a count /
//     prefix-sum / fill pass, then sorts each row. Sorted rows make the
//     arena a pure function of the edge set: the same adjacency comes
//     out for every worker count and shard interleaving.

// buildCollected constructs the adjacency for graphs at or above
// sparseMinVertices: collect the edge set into per-worker buffers, then
// pick the representation from the measured edge count (density-
// adaptive) — unless forceCSR pins the CSR arena (testing hook, and the
// guarantee newGraphSparse gives the parity suites). gridOK selects the
// sharded cell-pair walk; when the geometry rules the grid out
// (exponential high-dimension fan-out, degenerate resolution) the
// workers stripe an all-pairs scan instead. workers <= 0 selects
// GOMAXPROCS.
func (g *Graph) buildCollected(w *flatWindow, prm grid.Params, gridOK bool, workers int, forceCSR bool) {
	m := len(g.ids)
	workers = par.Workers(workers, m)
	var (
		bufs   [][]uint64
		cb     *cellBlocks
		blocks []uint64
	)
	if gridOK {
		bufs, cb, blocks = collectGrid(g, w, prm, workers)
	} else {
		bufs = collectAllPairs(w, m, workers)
	}
	edges := countEdges(bufs)
	for _, bl := range blocks {
		a, c := unpack(bl)
		edges += cb.edges(int(a), int(c))
	}
	if !forceCSR && denseWorthwhile(m, edges) {
		g.denseFromEdges(bufs)
		for _, bl := range blocks {
			a, c := unpack(bl)
			cb.fill(g.adj, int(a), int(c))
		}
		return
	}
	g.mergeCSR(bufs, cb, blocks, workers)
}

// countEdges totals the collected edge buffers.
func countEdges(bufs [][]uint64) int {
	total := 0
	for _, buf := range bufs {
		total += len(buf)
	}
	return total
}

// denseWorthwhile picks the adjacency representation from the measured
// edge count: dense words are m·ceil(m/64), the CSR arena holds 2 int32
// entries (one 64-bit word) per edge — when the dense rows are no
// bigger, sparsity buys no memory and the word-parallel dense
// enumeration plus a fill-from-buffers build (no per-row merge+sort) is
// strictly better. Edge-dense clustered windows near the old vertex
// crossover land here; uniform fleets at scale never do, so the ratio
// needs no separate memory cap.
func denseWorthwhile(m, edges int) bool {
	return m*((m+63)/64) <= edges
}

// denseFromEdges fills slab-backed dense bitset rows straight from the
// per-worker edge buffers.
func (g *Graph) denseFromEdges(bufs [][]uint64) {
	g.allocDense()
	for _, buf := range bufs {
		for _, e := range buf {
			g.addEdge(unpack(e))
		}
	}
}

// pack encodes an edge as one word for the per-worker buffers.
func pack(a, c int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(c)) }

func unpack(e uint64) (int32, int32) { return int32(e >> 32), int32(uint32(e)) }

// edgeChunkLen is the capacity of one edge-buffer chunk (256 KB).
const edgeChunkLen = 1 << 15

// edgeSink accumulates packed edges in fixed-size chunks. Chunking keeps
// the collection phase's total allocation at the edge count itself —
// a single growing slice would reallocate-and-copy its way to ~5x that
// (Go grows large slices by 1.25x) — and edge-dense clustered windows
// put tens of millions of edges through here.
type edgeSink struct {
	cur    []uint64
	chunks [][]uint64
}

func (s *edgeSink) add(e uint64) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.chunks = append(s.chunks, s.cur)
		}
		s.cur = make([]uint64, 0, edgeChunkLen)
	}
	s.cur = append(s.cur, e)
}

// done flushes the open chunk and returns every chunk collected.
func (s *edgeSink) done() [][]uint64 {
	if len(s.cur) > 0 {
		s.chunks = append(s.chunks, s.cur)
	}
	return s.chunks
}

// collectGrid runs the sharded cell-pair walk: every unordered candidate
// pair is decided by exactly one worker (the one owning the
// lexicographically smaller cell), so the union of the buffers holds
// every edge exactly once — either in an edge buffer or inside one
// accepted block. The returned blocks are packed cell-index pairs into
// cb's walk order.
func collectGrid(g *Graph, w *flatWindow, prm grid.Params, workers int) ([][]uint64, *cellBlocks, []uint64) {
	idx := grid.New(g.pair.Prev, g.ids, prm)
	walk := idx.NewPairWalk(gridBuildReach)
	cb := newCellBlocks(w, g.resolveCellLocals(walk.Cells()))
	workers = par.Workers(workers, len(walk.Cells()))
	bufs := make([][][]uint64, workers)
	blocks := make([][]uint64, workers)
	par.Do(workers, func(wk int) {
		var sink edgeSink
		var accepted []uint64
		edge := func(va, vc int32) { sink.add(pack(va, vc)) }
		walk.Shard(wk, workers, func(a, c int) {
			if cb.accept(a, c) {
				accepted = append(accepted, pack(int32(a), int32(c)))
			} else {
				cb.testBlock(a, c, edge)
			}
		})
		bufs[wk] = sink.done()
		blocks[wk] = accepted
	})
	return flattenChunks(bufs), cb, slices.Concat(blocks...)
}

// flattenChunks concatenates the workers' chunk lists (chunk order is
// irrelevant: the merge sorts every row).
func flattenChunks(bufs [][][]uint64) [][]uint64 {
	var out [][]uint64
	for _, chunks := range bufs {
		out = append(out, chunks...)
	}
	return out
}

// collectAllPairs stripes the quadratic scan across workers (vertex a of
// every pair (a, c), a < c, belongs to exactly one stripe).
func collectAllPairs(w *flatWindow, m, workers int) [][]uint64 {
	bufs := make([][][]uint64, workers)
	par.Do(workers, func(wk int) {
		var sink edgeSink
		for a := wk; a < m; a += workers {
			for c := a + 1; c < m; c++ {
				if w.adjacent(int32(a), int32(c)) {
					sink.add(pack(int32(a), int32(c)))
				}
			}
		}
		bufs[wk] = sink.done()
	})
	return flattenChunks(bufs)
}

// mergeCSR folds the per-worker edge buffers and the accepted blocks of
// cb into the shared CSR arena: count degrees, prefix-sum into offsets,
// fill, then sort each row. The arena is exactly 2 allocations (offsets
// + neighbours); the count and cursor arrays are transient. Sorted rows
// make membership a binary search, densification a linear merge, and
// the arena content a pure function of the edge set — independent of
// worker count and of the order shards emitted edges
// (TestSparseBuildDeterministic).
func (g *Graph) mergeCSR(bufs [][]uint64, cb *cellBlocks, blocks []uint64, workers int) {
	m := len(g.ids)
	off := make([]int64, m+1)
	for _, buf := range bufs {
		for _, e := range buf {
			a, c := unpack(e)
			off[a+1]++
			off[c+1]++
		}
	}
	for _, bl := range blocks {
		a, c := unpack(bl)
		la, lc := cb.locals.row(int(a)), cb.locals.row(int(c))
		if a == c {
			for _, v := range la {
				off[v+1] += int64(len(la) - 1)
			}
			continue
		}
		for _, v := range la {
			off[v+1] += int64(len(lc))
		}
		for _, v := range lc {
			off[v+1] += int64(len(la))
		}
	}
	for v := 0; v < m; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, off[m])
	cur := make([]int64, m)
	copy(cur, off[:m])
	for _, buf := range bufs {
		for _, e := range buf {
			a, c := unpack(e)
			nbr[cur[a]] = c
			cur[a]++
			nbr[cur[c]] = a
			cur[c]++
		}
	}
	for _, bl := range blocks {
		a, c := unpack(bl)
		la, lc := cb.locals.row(int(a)), cb.locals.row(int(c))
		if a == c {
			for _, v := range la {
				for _, u := range la {
					if u != v {
						nbr[cur[v]] = u
						cur[v]++
					}
				}
			}
			continue
		}
		for _, v := range la {
			cur[v] += int64(copy(nbr[cur[v]:], lc))
		}
		for _, v := range lc {
			cur[v] += int64(copy(nbr[cur[v]:], la))
		}
	}
	par.Do(workers, func(w int) {
		for v := w; v < m; v += workers {
			slices.Sort(nbr[off[v]:off[v+1]])
		}
	})
	g.off, g.nbr = off, nbr
}

// sortInt32s sorts a neighbour-list buffer in place.
func sortInt32s(s sets.Sorted) { slices.Sort(s) }

// densify materializes the subgraph induced on verts (sorted local
// indices) as dense bitset rows over sub-indices 0..len(verts)-1,
// reusing the scratch's row bitsets. This is the sparse-BK trick: a
// vertex's clique search only ever looks inside its neighbourhood, so
// the word-parallel recursion runs over a Δ-sized universe instead of
// the m-sized one — O(Δ²/64) scratch bits, not O(m²/64).
func (g *Graph) densify(sc *bkScratch, verts sets.Sorted) []*sets.Bits {
	s := len(verts)
	for len(sc.sub) < s {
		sc.sub = append(sc.sub, sets.NewBits(0))
	}
	sub := sc.sub[:s]
	for i := range sub {
		sub[i].Resize(s)
	}
	for i, v := range verts {
		bi := sub[i]
		g.row(int(v)).IntersectPositions(verts, bi.Add)
	}
	return sub
}

// maximalMotionsSparse enumerates all maximal cliques of a sparse-mode
// graph with the degeneracy-ordered Bron–Kerbosch of Eppstein, Löffler
// and Strash: the outer loop walks vertices in degeneracy order and
// enumerates, inside each vertex's densified neighbourhood subgraph,
// the maximal cliques whose earliest vertex (in that order) it is —
// candidates restricted to later neighbours, exclusions to earlier
// ones. Every maximal clique of the graph is reported exactly once.
func (g *Graph) maximalMotionsSparse() [][]int {
	m := len(g.ids)
	if m == 0 {
		return nil
	}
	order := g.degeneracyOrder()
	pos := make([]int, m)
	for i, v := range order {
		pos[v] = i
	}
	var out [][]int
	sc := g.getScratch()
	defer g.putScratch(sc)
	for _, v := range order {
		verts := g.row(v).InsertInto(int32(v), sc.verts[:0])
		sub := g.densify(sc, verts)
		s := len(verts)
		r := sc.lease(s)
		p := sc.lease(s)
		x := sc.lease(s)
		r.Add(searchSorted(verts, int32(v)))
		for i, u := range verts {
			if int(u) == v {
				continue
			}
			if pos[int(u)] > pos[v] {
				p.Add(i)
			} else {
				x.Add(i)
			}
		}
		bkOver(sub, r, p, x, sc, func(clique *sets.Bits) {
			ids := make([]int, 0, clique.Len())
			clique.ForEach(func(i int) bool {
				ids = append(ids, g.ids[verts[i]])
				return true
			})
			out = append(out, ids)
		})
		sc.put(x)
		sc.put(p)
		sc.put(r)
		sc.verts = verts[:0]
	}
	sets.SortSets(out)
	return out
}
