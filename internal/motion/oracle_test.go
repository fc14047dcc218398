package motion

import (
	"math/bits"

	"anomalia/internal/grid"
)

// This file holds the reference builds and read-side helpers the parity
// suites compare NewGraph against; production never calls them.

// newGraphAllPairs builds the graph from the reference all-pairs scan
// regardless of size: every vertex pair is decided by Pair.Adjacent, so
// the edge set shares no code with the collect pass; the component
// layout is the production one. It is the oracle of the property tests
// and the recorded baseline BenchmarkNewGraph compares the grid build
// against.
func newGraphAllPairs(p *Pair, ids []int, r float64) *Graph {
	g := new(Graph).setVertices(p, ids, r)
	var sink edgeSink
	m := len(g.ids)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			if p.Adjacent(g.ids[a], g.ids[b], r) {
				sink.add(pack(int32(a), int32(b)))
			}
		}
	}
	g.layout(&collected{bufs: sink.done()}, 1, false)
	return g
}

// newGraphGrid builds the graph with one worker's grid walk regardless
// of size.
func newGraphGrid(p *Pair, ids []int, r float64) *Graph {
	g := new(Graph).setVertices(p, ids, r)
	g.build(grid.ForRadius(r), true, 1, false)
	return g
}

// newGraphSparse builds the graph with CSR rows for every component,
// however small or dense; workers <= 0 selects GOMAXPROCS.
func newGraphSparse(p *Pair, ids []int, r float64, workers int) *Graph {
	return new(Graph).refillSparse(p, ids, r, workers)
}

// refillSparse is newGraphSparse over g's own memory.
func (g *Graph) refillSparse(p *Pair, ids []int, r float64, workers int) *Graph {
	g.setVertices(p, ids, r)
	prm := grid.ForRadius(r)
	useGrid := prm.Res <= gridBuildMaxRes && gridBuildWorthwhile(p.Dim(), len(g.ids))
	g.build(prm, useGrid, workers, true)
	return g
}

// Degree returns the number of neighbours of device id (excluding
// itself), or -1 when the device is not a vertex.
func (g *Graph) Degree(id int) int {
	li, ok := g.Local(id)
	if !ok {
		return -1
	}
	return g.degreeLocal(li)
}

// degreeLocal returns the neighbour count of local vertex v.
func (g *Graph) degreeLocal(v int) int {
	c, rv := int(g.cs.comp[v]), int(g.cs.rank[v])
	if g.isCSR(c) {
		return len(g.csrRow(c, rv))
	}
	n := 0
	for _, w := range g.rowWords(c, rv) {
		n += bits.OnesCount64(w)
	}
	return n
}

// forNeighbors calls fn for every neighbour of local vertex v in
// increasing local order, stopping early if fn returns false.
func (g *Graph) forNeighbors(v int, fn func(u int) bool) {
	c, rv := int(g.cs.comp[v]), int(g.cs.rank[v])
	verts := g.cs.Verts(c)
	if g.isCSR(c) {
		for _, u := range g.csrRow(c, rv) {
			if !fn(int(verts[u])) {
				return
			}
		}
		return
	}
	for wi, w := range g.rowWords(c, rv) {
		for w != 0 {
			if !fn(int(verts[wi*64+bits.TrailingZeros64(w)])) {
				return
			}
			w &= w - 1
		}
	}
}

// IsClique reports whether the given device ids are pairwise adjacent,
// i.e. form an r-consistent motion within the graph.
func (g *Graph) IsClique(ids []int) bool {
	locals := make([]int, len(ids))
	for i, id := range ids {
		li, ok := g.Local(id)
		if !ok {
			return false
		}
		locals[i] = li
	}
	for i := 0; i < len(locals); i++ {
		for j := i + 1; j < len(locals); j++ {
			if locals[i] != locals[j] && !g.adjacentLocal(locals[i], locals[j]) {
				return false
			}
		}
	}
	return true
}

// allPairsComponents is the reference labelling of the window's motion
// graph: a breadth-first search over Pair.Adjacent from each unlabelled
// vertex in ascending order, then members and ranks in ascending order
// — no code shared with the build's union-find.
func allPairsComponents(p *Pair, ids []int, r float64) *Components {
	g := new(Graph).setVertices(p, ids, r)
	m := len(g.ids)
	cs := &Components{g: g, comp: make([]int32, m), rank: make([]int32, m), off: []int32{0}}
	for v := range cs.comp {
		cs.comp[v] = -1
	}
	for v := 0; v < m; v++ {
		if cs.comp[v] >= 0 {
			continue
		}
		c := int32(cs.Count())
		cs.comp[v] = c
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for w := 0; w < m; w++ {
				if cs.comp[w] < 0 && p.Adjacent(g.ids[u], g.ids[w], r) {
					cs.comp[w] = c
					queue = append(queue, w)
				}
			}
		}
		var members []int32
		for w := v; w < m; w++ {
			if cs.comp[w] == c {
				cs.rank[w] = int32(len(members))
				members = append(members, int32(w))
			}
		}
		cs.verts = append(cs.verts, members...)
		cs.off = append(cs.off, int32(len(cs.verts)))
	}
	return cs
}
