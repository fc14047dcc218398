package motion

import (
	"slices"

	"anomalia/internal/grid"
	"anomalia/internal/par"
	"anomalia/internal/sets"
	"anomalia/internal/slab"
)

// This file is the collect pass every build runs, and the CSR rows of
// components too large for a dense block, with the neighbourhood-
// densified clique enumeration that keeps Bron–Kerbosch word-parallel on
// them without materializing O(s²/64) bits.
//
// Construction pipeline:
//
//  1. Test against the window's flattened coordinates (flatWindow), so
//     the inner adjacency test is a branch-cheap scan over contiguous
//     memory with per-axis early exit.
//  2. Walk the grid's cell pairs, sharded across workers for large
//     windows; each worker records the cell pairs that pass the block
//     accept (block.go) and distance-tests the candidate pairs of every
//     other cell pair, appending surviving edges to a private buffer (no
//     shared state, no locks). Geometries the grid cannot serve stripe an
//     all-pairs scan instead.
//  3. Label components with a union-find over the blocks and edges, and
//     lay each component out over its ranks (components.go): dense
//     blocks fill straight from the buffers and OR each block's member
//     masks; CSR components merge the buffers and the expanded blocks
//     into one arena — offsets plus neighbour ranks, 2 allocations
//     however many components — via a count / prefix-sum / fill pass,
//     then sort each row. Sorted rows make the arena a pure function of
//     the edge set: the same adjacency comes out for every worker count
//     and shard interleaving.

// collected is a window's edge set as the collect pass leaves it: packed
// local-index edges in per-worker chunks, plus the accepted cell-pair
// blocks of cb, every pair of which is an edge. No edge is in both.
type collected struct {
	bufs   [][]uint64
	cb     *cellBlocks
	blocks []uint64
}

// pack encodes an edge as one word for the per-worker buffers.
func pack(a, c int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(c)) }

func unpack(e uint64) (int32, int32) { return int32(e >> 32), int32(uint32(e)) }

// edgeChunkLen is the largest capacity of one edge-buffer chunk (256 KB).
const edgeChunkLen = 1 << 15

// edgeSink accumulates packed edges in chunks whose capacity starts at
// first — the sink's share of the window's vertices — and doubles up to
// edgeChunkLen. A small window's buffers stay sized to the window, and a
// large one's total allocation stays within twice its edge count — a
// single growing slice would reallocate-and-copy its way to ~5x that (Go
// grows large slices by 1.25x), and edge-dense clustered windows put
// tens of millions of edges through here. A sink recycled with the
// build memory fills the chunks of its earlier builds before it makes
// a new one.
type edgeSink struct {
	first  int
	cur    []uint64
	chunks [][]uint64
	spare  [][]uint64 // emptied chunks of earlier builds
}

// reset empties the sink for a build whose share is first, keeping its
// chunks as spares.
func (s *edgeSink) reset(first int) {
	for _, c := range s.chunks {
		s.spare = append(s.spare, c[:0])
	}
	s.first, s.cur, s.chunks = first, nil, s.chunks[:0]
}

func (s *edgeSink) add(e uint64) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.chunks = append(s.chunks, s.cur)
		}
		if n := len(s.spare); n > 0 {
			s.cur, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			s.cur = make([]uint64, 0, min(max(2*cap(s.cur), s.first, 1), edgeChunkLen))
		}
	}
	s.cur = append(s.cur, e)
}

// done flushes the open chunk and returns every chunk collected.
func (s *edgeSink) done() [][]uint64 {
	if len(s.cur) > 0 {
		s.chunks = append(s.chunks, s.cur)
		s.cur = nil
	}
	return s.chunks
}

// edgeSinks returns workers sinks of mem, each reset to an equal share
// of m vertices. Sinks past the old length keep their spares when the
// slab grows.
func (mem *buildMem) edgeSinks(workers, m int) []edgeSink {
	if workers > cap(mem.sinks) {
		mem.sinks = append(mem.sinks[:cap(mem.sinks)], make([]edgeSink, workers-cap(mem.sinks))...)
	}
	sinks := mem.sinks[:workers]
	for i := range sinks {
		sinks[i].reset(m / workers)
	}
	return sinks
}

// chunksOf returns the chunks the sinks collected (chunk order is
// irrelevant: labelling is order-free and the CSR fill sorts every row).
func (mem *buildMem) chunksOf(sinks []edgeSink) [][]uint64 {
	if len(sinks) == 1 {
		return sinks[0].done()
	}
	out := mem.chunks[:0]
	for i := range sinks {
		out = append(out, sinks[i].done()...)
	}
	mem.chunks = out
	return out
}

// collectGrid runs the sharded cell-pair walk: every unordered candidate
// pair is decided by exactly one worker (the one owning the
// lexicographically smaller cell), so the union of the buffers holds
// every edge exactly once — either in an edge buffer or inside one
// accepted block. The blocks are packed cell-index pairs into cb's walk
// order.
func collectGrid(g *Graph, w *flatWindow, prm grid.Params, workers int) collected {
	idx := grid.New(g.pair.Prev, g.ids, prm)
	defer idx.Release()
	walk := idx.NewPairWalk(gridBuildReach)
	cb := g.mem.cb.init(w, g.mem.locals.resolve(idx))
	workers = par.Workers(workers, len(walk.Cells()))
	sinks := g.mem.edgeSinks(workers, len(g.ids))
	blocks := make([][]uint64, workers)
	par.Do(workers, func(wk int) {
		sink := &sinks[wk]
		var accepted []uint64
		edge := func(va, vc int32) { sink.add(pack(va, vc)) }
		walk.Shard(wk, workers, func(a, c int) {
			if cb.accept(a, c) {
				accepted = append(accepted, pack(int32(a), int32(c)))
			} else {
				cb.testBlock(a, c, edge)
			}
		})
		blocks[wk] = accepted
	})
	return collected{bufs: g.mem.chunksOf(sinks), cb: cb, blocks: slices.Concat(blocks...)}
}

// collectAllPairs stripes the quadratic scan across workers (vertex a of
// every pair (a, c), a < c, belongs to exactly one stripe).
func collectAllPairs(mem *buildMem, w *flatWindow, m, workers int) [][]uint64 {
	sinks := mem.edgeSinks(workers, m)
	par.Do(workers, func(wk int) {
		sink := &sinks[wk]
		for a := wk; a < m; a += workers {
			for c := a + 1; c < m; c++ {
				if w.adjacent(int32(a), int32(c)) {
					sink.add(pack(int32(a), int32(c)))
				}
			}
		}
	})
	return mem.chunksOf(sinks)
}

// fillCSR folds the edges and accepted blocks of the CSR components into
// one arena over slots row slots: count degrees, prefix-sum into
// offsets, fill neighbour ranks, then sort each row. The arena is
// exactly 2 allocations (offsets + neighbours); the cursor array is
// transient. Sorted rows make membership a binary search, densification
// a linear merge, and the arena content a pure function of the edge set
// — independent of worker count and of the order shards emitted edges
// (TestSparseBuildDeterministic).
func (g *Graph) fillCSR(col *collected, slots, workers int) {
	cs := g.cs
	csr := func(v int32) bool { return g.base[cs.comp[v]] < 0 }
	// cur[v] counts local vertex v's neighbours, then becomes its write
	// cursor into nbr.
	g.mem.csrCur = slab.Zeroed(g.mem.csrCur, len(g.ids))
	cur := g.mem.csrCur
	for _, buf := range col.bufs {
		for _, e := range buf {
			if a, c := unpack(e); csr(a) {
				cur[a]++
				cur[c]++
			}
		}
	}
	for _, bl := range col.blocks {
		a, c := unpack(bl)
		la, lc := col.cb.locals.row(int(a)), col.cb.locals.row(int(c))
		if !csr(la[0]) {
			continue
		}
		if a == c {
			for _, v := range la {
				cur[v] += int64(len(la) - 1)
			}
			continue
		}
		for _, v := range la {
			cur[v] += int64(len(lc))
		}
		for _, v := range lc {
			cur[v] += int64(len(la))
		}
	}
	// Slots follow component then rank order, which is the order of the
	// member slab.
	off := slab.Of(g.off, slots+1)
	off[0] = 0
	s := 0
	for c := 0; c < cs.Count(); c++ {
		if !g.isCSR(c) {
			continue
		}
		for _, v := range cs.Verts(c) {
			off[s+1] = off[s] + cur[v]
			cur[v] = off[s]
			s++
		}
	}
	nbr := slab.Of(g.nbr, int(off[slots]))
	rank := cs.rank
	for _, buf := range col.bufs {
		for _, e := range buf {
			if a, c := unpack(e); csr(a) {
				nbr[cur[a]] = rank[c]
				cur[a]++
				nbr[cur[c]] = rank[a]
				cur[c]++
			}
		}
	}
	for _, bl := range col.blocks {
		a, c := unpack(bl)
		la, lc := col.cb.locals.row(int(a)), col.cb.locals.row(int(c))
		if !csr(la[0]) {
			continue
		}
		for _, v := range la {
			for _, u := range lc {
				if u != v {
					nbr[cur[v]] = rank[u]
					cur[v]++
				}
			}
		}
		if a != c {
			for _, v := range lc {
				for _, u := range la {
					nbr[cur[v]] = rank[u]
					cur[v]++
				}
			}
		}
	}
	k := par.Workers(workers, slots)
	par.Do(k, func(w int) {
		for s := w; s < slots; s += k {
			slices.Sort(nbr[off[s]:off[s+1]])
		}
	})
	g.off, g.nbr = off, nbr
}

// densify materializes the subgraph of CSR component c induced on verts
// (sorted ranks) as dense bitset rows over sub-indices
// 0..len(verts)-1, reusing the scratch's row bitsets. This is the
// sparse-BK trick: a vertex's clique search only ever looks inside its
// neighbourhood, so the word-parallel recursion runs over a Δ-sized
// universe instead of the component-sized one — O(Δ²/64) scratch bits,
// not O(s²/64).
func (g *Graph) densify(sc *bkScratch, c int, verts sets.Sorted) []*sets.Bits {
	s := len(verts)
	for len(sc.sub) < s {
		sc.sub = append(sc.sub, sets.NewBits(0))
	}
	sub := sc.sub[:s]
	for i := range sub {
		sub[i].Resize(s)
	}
	for i, v := range verts {
		g.csrRow(c, int(v)).IntersectPositions(verts, sub[i].Add)
	}
	return sub
}
