package motion

import "anomalia/internal/sets"

// Components is the connected-component decomposition of a Graph, with a
// compact per-component renumbering: every vertex carries a rank — its
// position within its component's sorted member list — so any set a
// decision touches can live in a bitset sized to the component instead
// of the whole vertex universe.
//
// The decomposition is the locality backbone of the characterization
// layer (internal/core): every set the paper's decision rules consult
// for device j (the dense motions W̄_k, D_k(j), the J_k/L_k split, the
// Theorem 7 collections) lives inside j's 4r neighbourhood, which is in
// turn inside j's connected component. Renumbering per component turns
// the per-decision word algebra from O(m/64) per operation into
// O(|component|/64) while keeping one shared universe per component, so
// memoized motion bitsets stay directly comparable across all devices
// of a component.
//
// Components is read-only after construction and safe for concurrent
// readers, exactly like the graph it decomposes.
type Components struct {
	g *Graph
	// comp maps graph-local vertex -> component index. Components are
	// numbered by their smallest vertex, ascending.
	comp []int32
	// rank maps graph-local vertex -> its position within the sorted
	// member list of its component (the component-local index).
	rank []int32
	// verts holds the members of every component — sorted graph-local
	// indices, grouped by component; off[c]:off[c+1] delimits component c.
	verts []int32
	off   []int32
}

// Components computes the connected-component decomposition of the
// graph: O(m + edges) over CSR neighbour lists, and O(m²/64) word
// operations over dense bitset rows, where the breadth-first search
// takes each row's unseen neighbours a word at a time.
func (g *Graph) Components() *Components {
	m := len(g.ids)
	cs := &Components{
		g:     g,
		comp:  make([]int32, m),
		rank:  make([]int32, m),
		verts: make([]int32, m),
	}
	for i := range cs.comp {
		cs.comp[i] = -1
	}
	// Pass 1: label components by BFS from each unvisited vertex, in
	// ascending vertex order — components come out numbered by smallest
	// member. The queue reuses the verts slab (every vertex enters it
	// exactly once, and pass 2 overwrites it in place).
	// Dense rows search word-parallel: a seen set turns each row visit
	// into fresh = adj[u] &^ seen.
	queue := cs.verts
	var seen *sets.Bits
	if g.adj != nil {
		seen = sets.NewBits(m)
	}
	next := int32(0)
	head, tail := 0, 0
	for v := 0; v < m; v++ {
		if cs.comp[v] >= 0 {
			continue
		}
		c := next
		next++
		cs.comp[v] = c
		queue[tail] = int32(v)
		tail++
		if seen != nil {
			seen.Add(v)
		}
		for head < tail {
			u := int(queue[head])
			head++
			if seen != nil {
				fresh := g.adj[u].AppendNew(seen, queue[:tail])
				for _, w := range fresh[tail:] {
					cs.comp[w] = c
				}
				tail = len(fresh)
				continue
			}
			for _, w := range g.row(u) {
				if cs.comp[w] < 0 {
					cs.comp[w] = c
					queue[tail] = w
					tail++
				}
			}
		}
	}
	// Pass 2: bucket the vertices by component with a counting sort, so
	// member lists come out sorted (ascending vertex — and therefore
	// ascending device id) and every vertex learns its rank.
	cs.off = make([]int32, int(next)+1)
	for _, c := range cs.comp {
		cs.off[c+1]++
	}
	for c := 0; c < int(next); c++ {
		cs.off[c+1] += cs.off[c]
	}
	cur := make([]int32, next)
	copy(cur, cs.off[:next])
	for v := 0; v < m; v++ {
		c := cs.comp[v]
		cs.verts[cur[c]] = int32(v)
		cs.rank[v] = cur[c] - cs.off[c]
		cur[c]++
	}
	return cs
}

// WholeGraphComponent returns the degenerate decomposition that places
// every vertex in one component — the identity renumbering, under which
// every projected bitset spans the full graph universe. It reproduces
// the pre-component full-graph scratch behaviour exactly and serves as
// the reference oracle the component-local parity suites compare
// against.
func (g *Graph) WholeGraphComponent() *Components {
	m := len(g.ids)
	cs := &Components{
		g:     g,
		comp:  make([]int32, m),
		rank:  make([]int32, m),
		verts: make([]int32, m),
		off:   []int32{0, int32(m)},
	}
	for v := 0; v < m; v++ {
		cs.rank[v] = int32(v)
		cs.verts[v] = int32(v)
	}
	if m == 0 {
		cs.off = []int32{0}
	}
	return cs
}

// Count returns the number of components.
func (cs *Components) Count() int { return len(cs.off) - 1 }

// Offset returns the position of component c's first member within the
// AllVerts slab.
func (cs *Components) Offset(c int) int { return int(cs.off[c]) }

// Of returns the component index of graph-local vertex li.
func (cs *Components) Of(li int) int { return int(cs.comp[li]) }

// Size returns the vertex count of component c.
func (cs *Components) Size(c int) int { return int(cs.off[c+1] - cs.off[c]) }

// Rank returns the component-local index of graph-local vertex li: its
// position within the sorted member list of its component. Ranks are
// monotone in graph-local index (and therefore in device id) within a
// component.
func (cs *Components) Rank(li int) int { return int(cs.rank[li]) }

// Verts returns component c's members as sorted graph-local indices.
// The slice views the decomposition's slab — read-only.
func (cs *Components) Verts(c int) []int32 {
	return cs.verts[cs.off[c]:cs.off[c+1]:cs.off[c+1]]
}

// AllVerts returns the full member slab: every component's sorted
// graph-local indices, concatenated in component order. The slice views
// the decomposition's slab — read-only.
func (cs *Components) AllVerts() []int32 { return cs.verts }

// AppendIds appends the device ids of the component-local bitset b of
// component c to dst, in increasing id order, and returns the extended
// slice — the component-space analogue of Graph.AppendIds.
func (cs *Components) AppendIds(b *sets.Bits, c int, dst []int) []int {
	verts := cs.Verts(c)
	ids := cs.g.ids
	b.ForEach(func(i int) bool {
		dst = append(dst, ids[verts[i]])
		return true
	})
	return dst // ranks follow sorted vertex order, so ids come out sorted
}

// componentDenseMax is the component size up to which
// MaximalMotionsOfComponent densifies the whole component subgraph of a
// sparse-mode graph for a single Bron–Kerbosch run (the same footprint
// bound as the graph's own dense-mode threshold). Larger sparse-mode
// components fall back to the anchored per-vertex enumeration, whose
// scratch stays neighbourhood-sized. Dense-mode graphs densify whatever
// the component size: their component scratch is at most the m²/64-bit
// adjacency the graph already carries (density-adaptive windows pick
// dense rows above sparseMinVertices too, when denseWorthwhile), and the
// anchored walk needs the CSR rows dense mode does not build.
const componentDenseMax = sparseMinVertices

// MaximalMotionsOfComponent enumerates every maximal motion among the
// devices of component c — each exactly once — as sorted device-id sets
// plus bitsets over the component-local universe, in the id sets'
// lexicographic order (the per-device order of
// MaximalMotionsContainingIn). One call serves the whole component: the
// maximal motions containing any member are exactly the reported
// motions that include it, because a motion containing a vertex never
// leaves the vertex's component. This is the fleet pass's enumeration
// amortization — per-device calls redo the same neighbourhood
// densification and clique search once per member, turning adversarial
// all-abnormal windows quadratic in cluster mass.
func (g *Graph) MaximalMotionsOfComponent(c int, cs *Components) ([][]int, []*sets.Bits) {
	verts := sets.Sorted(cs.Verts(c))
	s := len(verts)
	var out motionFamily
	sc := g.getScratch()
	if s <= componentDenseMax || !g.Sparse() {
		// Densify the induced subgraph once — sub-index i is component
		// rank i, so reported cliques are already component-local. Every
		// neighbour of a member is a member, so rows project losslessly.
		for len(sc.sub) < s {
			sc.sub = append(sc.sub, sets.NewBits(0))
		}
		sub := sc.sub[:s]
		for i := range sub {
			sub[i].Resize(s)
		}
		if g.Sparse() {
			for i, v := range verts {
				bi := sub[i]
				for _, u := range g.row(int(v)) {
					bi.Add(int(cs.rank[u]))
				}
			}
		} else if s > 0 && int(verts[s-1]-verts[0]) == s-1 {
			// A component over a contiguous run of local indices (a
			// DSLAM's contiguous ids) has rank v-verts[0]: each row's
			// range copies with word shifts.
			for i, v := range verts {
				sub[i].CopyRange(g.adj[v], int(verts[0]))
			}
		} else {
			for i, v := range verts {
				g.adj[v].ProjectInto(sub[i], cs.rank)
			}
		}
		r := sc.lease(s)
		p := sc.lease(s)
		for i := 0; i < s; i++ {
			p.Add(i)
		}
		x := sc.lease(s)
		bkOver(sub, r, p, x, sc, func(clique *sets.Bits) {
			ids := make([]int, 0, clique.Len())
			clique.ForEach(func(i int) bool {
				ids = append(ids, g.ids[verts[i]])
				return true
			})
			out.ids = append(out.ids, ids)
			out.cliques = append(out.cliques, clique)
		})
		sc.put(x)
		sc.put(p)
		sc.put(r)
	} else {
		// Anchored enumeration for oversized sparse-mode components (the
		// branch guard keeps dense graphs out — g.row/g.densify below read
		// the CSR arena, which dense mode does not build).
		// Walking members in ascending vertex order and restricting
		// candidates to later neighbours / exclusions to earlier ones
		// reports each maximal clique exactly once — anchored at its
		// smallest member — inside a neighbourhood-sized subgraph, so
		// scratch stays O(Δ²/64) however large the component.
		for _, v32 := range verts {
			v := int(v32)
			nverts := g.row(v).InsertInto(v32, sc.verts[:0])
			sub := g.densify(sc, nverts)
			sv := len(nverts)
			r := sc.lease(sv)
			r.Add(searchSorted(nverts, v32))
			p := sc.lease(sv)
			x := sc.lease(sv)
			for i, u := range nverts {
				if u == v32 {
					continue
				}
				if u > v32 {
					p.Add(i)
				} else {
					x.Add(i)
				}
			}
			bkOver(sub, r, p, x, sc, func(clique *sets.Bits) {
				wide := sets.NewBits(s)
				ids := make([]int, 0, clique.Len())
				clique.ForEach(func(i int) bool {
					u := nverts[i]
					wide.Add(int(cs.rank[u]))
					ids = append(ids, g.ids[u])
					return true
				})
				out.ids = append(out.ids, ids)
				out.cliques = append(out.cliques, wide)
			})
			sc.put(x)
			sc.put(p)
			sc.put(r)
			sc.verts = nverts[:0]
		}
	}
	g.putScratch(sc)
	sortMotionFamily(&out)
	return out.ids, out.cliques
}
