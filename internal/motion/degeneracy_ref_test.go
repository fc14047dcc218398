package motion

import (
	"anomalia/internal/sets"
)

// MaximalMotionsDegeneracy enumerates maximal motions with the
// degeneracy-ordered Bron–Kerbosch of Eppstein, Löffler and Strash: per
// component, the outer loop walks vertices in degeneracy order,
// restricting candidates to later neighbours and exclusions to earlier
// ones, so every maximal clique is reported exactly once. It shares no
// enumeration order with MaximalMotions (whole-component pivoting) or
// the anchored CSR walk, which makes it their reference in the parity
// suites; results are identical to MaximalMotions.
func (g *Graph) MaximalMotionsDegeneracy() [][]int {
	var out [][]int
	sc := getScratch()
	defer putScratch(sc)
	for c := 0; c < g.cs.Count(); c++ {
		verts := g.cs.Verts(c)
		s := len(verts)
		rows := g.componentRows(sc, c)
		order := degeneracyOrder(rows)
		pos := make([]int, s)
		for i, v := range order {
			pos[v] = i
		}
		for _, v := range order {
			r := sc.lease(s)
			p := sc.lease(s)
			x := sc.lease(s)
			r.Add(v)
			rows[v].ForEach(func(u int) bool {
				if pos[u] > pos[v] {
					p.Add(u)
				} else {
					x.Add(u)
				}
				return true
			})
			bkOver(rows, r, p, x, sc, func(clique *sets.Bits) {
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
		}
	}
	sets.SortSets(out)
	return out
}

// componentRows returns component c's adjacency as dense rows over its
// ranks: the block's own rows, or rows copied out of the CSR arena.
func (g *Graph) componentRows(sc *bkScratch, c int) []*sets.Bits {
	if !g.isCSR(c) {
		return g.blockRows(sc, c)
	}
	s := g.cs.Size(c)
	rows := sets.NewBitsRows(s, s)
	for i, row := range rows {
		for _, u := range g.csrRow(c, i) {
			row.Add(int(u))
		}
	}
	return rows
}

// degeneracyOrder produces an ordering of the rows' vertices whose
// back-degree is the graph degeneracy, by repeatedly removing a
// minimum-degree vertex — the Batagelj–Zaveršnik bucket formulation of
// Matula–Beck, O(s + edges). Vertices sit in an array bucketed by
// current degree; removing a vertex swaps each neighbour still ahead of
// the removal frontier down one bucket. (Neighbours whose degree already
// equals the current minimum stay put — the standard clamping, which
// preserves the min-degree removal order.)
func degeneracyOrder(rows []*sets.Bits) []int {
	m := len(rows)
	deg := make([]int, m)
	maxDeg := 0
	for v := 0; v < m; v++ {
		deg[v] = rows[v].Len()
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] is the index in vert of the first vertex of degree d; vert
	// holds the vertices sorted by current degree and pos the inverse.
	bin := make([]int, maxDeg+2)
	for v := 0; v < m; v++ {
		bin[deg[v]+1]++
	}
	for d := 0; d <= maxDeg; d++ {
		bin[d+1] += bin[d]
	}
	vert := make([]int, m)
	pos := make([]int, m)
	fill := make([]int, maxDeg+1)
	copy(fill, bin[:maxDeg+1])
	for v := 0; v < m; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	for i := 0; i < m; i++ {
		v := vert[i] // minimum-degree vertex among those not yet removed
		rows[v].ForEach(func(u int) bool {
			if deg[u] > deg[v] {
				du, pu := deg[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					vert[pu], vert[pw] = w, u
					pos[w], pos[u] = pu, pw
				}
				bin[du]++
				deg[u]--
			}
			return true
		})
	}
	return vert
}
