package motion

import (
	"anomalia/internal/sets"
	"anomalia/internal/slab"
)

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

// Components returns the connected-component decomposition of the
// graph: the labelling its build produced, shared by every caller.
func (g *Graph) Components() *Components { return g.cs }

// Count returns the number of components.
func (cs *Components) Count() int { return len(cs.off) - 1 }

// Of returns the component index of graph-local vertex li.
func (cs *Components) Of(li int) int { return int(cs.comp[li]) }

// Size returns the vertex count of component c.
func (cs *Components) Size(c int) int { return int(cs.off[c+1] - cs.off[c]) }

// Verts returns component c's members as sorted graph-local indices.
// The slice views the decomposition's slab — read-only.
func (cs *Components) Verts(c int) []int32 {
	return cs.verts[cs.off[c]:cs.off[c+1]:cs.off[c+1]]
}

// AppendIds appends the device ids of the component-local bitset b of
// component c to dst, in increasing id order, and returns the extended
// slice.
func (cs *Components) AppendIds(b *sets.Bits, c int, dst []int) []int {
	verts := cs.Verts(c)
	ids := cs.g.ids
	b.ForEach(func(i int) bool {
		dst = append(dst, ids[verts[i]])
		return true
	})
	return dst // ranks follow sorted vertex order, so ids come out sorted
}

// componentDenseMax is the component size up to which a component owns a
// dense bitset block: 4096 ranks make a 2 MB block, around the point
// where allocating and zeroing it starts to rival the whole CSR build,
// while every paper-scale cluster (tens to hundreds of devices, a
// DSLAM's at most a few thousand) stays word-parallel. A larger
// component keeps CSR rows and the anchored enumeration, whose scratch
// stays neighbourhood-sized, unless it is so edge-dense that its block
// would be no bigger than its CSR rows (denseWorthwhile).
const componentDenseMax = 4096

// denseWorthwhile reports whether an s-vertex component with the given
// edge count takes no more memory as a dense block (s·ceil(s/64) words)
// than as CSR rows (two int32 entries, one word, per edge). Edge-dense
// mass events land here; oversized components of uniform fleets never
// do.
func denseWorthwhile(s, edges int) bool {
	return s*((s+63)/64) <= edges
}

// unionFind is a disjoint-set forest over local vertices whose root is
// always the set's smallest member.
type unionFind []int32

func (u unionFind) find(v int32) int32 {
	for u[v] != v {
		u[v] = u[u[v]] // path halving
		v = u[v]
	}
	return v
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra < rb {
		u[rb] = ra
	} else if rb < ra {
		u[ra] = rb
	}
}

// layout labels the components of the collected edge set and lays out
// each component's adjacency over its ranks: a dense block in the shared
// words slab, or CSR rows (every component with forceCSR). The slab, the
// CSR arena and the labelling are a handful of allocations however many
// components the window has.
func (g *Graph) layout(col *collected, workers int, forceCSR bool) {
	g.cs = col.label(g)
	cs := g.cs
	count := cs.Count()
	maxSize := 0
	for c := 0; c < count; c++ {
		maxSize = max(maxSize, cs.Size(c))
	}
	// Edge counts only matter to components above componentDenseMax.
	var edges []int64
	if !forceCSR && maxSize > componentDenseMax {
		edges = col.componentEdges(cs)
	}
	g.base = slab.Of(g.base, count)
	words, slots := 0, 0
	for c := 0; c < count; c++ {
		s := cs.Size(c)
		if !forceCSR && (s <= componentDenseMax || denseWorthwhile(s, int(edges[c]))) {
			g.base[c] = int64(words)
			words += s * wordsFor(s)
		} else {
			g.base[c] = ^int64(slots)
			slots += s
		}
	}
	// Recycled words must be cleared: fillDense only sets bits.
	g.words = slab.Zeroed(g.words, words)
	g.off, g.nbr = slab.Of(g.off, 0), slab.Of(g.nbr, 0)
	if slots > 0 {
		g.fillCSR(col, slots, workers)
	}
	if words > 0 {
		g.fillDense(col)
	}
}

// label computes the component labelling with a union-find over the
// accepted blocks and the tested edges. Every component's root is its
// smallest member, so one ascending pass numbers components by smallest
// member; a counting sort then lists each component's members in
// ascending order and gives every vertex its rank.
func (col *collected) label(g *Graph) *Components {
	m := len(g.ids)
	cs := &g.comps
	uf := unionFind(slab.Of(cs.verts, m))
	for i := range uf {
		uf[i] = int32(i)
	}
	for _, buf := range col.bufs {
		for _, e := range buf {
			uf.union(unpack(e))
		}
	}
	if len(col.blocks) > 0 {
		// An accepted block's members are pairwise adjacent: unite each
		// cell's members once, then the two cells.
		g.mem.united = slab.Zeroed(g.mem.united, len(col.cb.locals.off)-1)
		united := g.mem.united
		for _, bl := range col.blocks {
			a, c := unpack(bl)
			for _, k := range [2]int32{a, c} {
				if !united[k] {
					united[k] = true
					lk := col.cb.locals.row(int(k))
					for _, v := range lk[1:] {
						uf.union(lk[0], v)
					}
				}
			}
			uf.union(col.cb.locals.row(int(a))[0], col.cb.locals.row(int(c))[0])
		}
	}
	cs.g, cs.comp, cs.rank = g, slab.Of(cs.comp, m), slab.Of(cs.rank, m)
	next := int32(0)
	for v := range uf {
		if root := uf.find(int32(v)); root == int32(v) {
			cs.comp[v] = next
			next++
		} else {
			cs.comp[v] = cs.comp[root] // root < v is labelled already
		}
	}
	// The forest is spent; its slab becomes the member list.
	cs.verts = uf
	cs.off = slab.Zeroed(cs.off, int(next)+1)
	for _, c := range cs.comp {
		cs.off[c+1]++
	}
	for c := 0; c < int(next); c++ {
		cs.off[c+1] += cs.off[c]
	}
	g.mem.cur = slab.Of(g.mem.cur, int(next))
	cur := g.mem.cur
	copy(cur, cs.off[:next])
	for v := 0; v < m; v++ {
		c := cs.comp[v]
		cs.verts[cur[c]] = int32(v)
		cs.rank[v] = cur[c] - cs.off[c]
		cur[c]++
	}
	return cs
}

// componentEdges counts each component's edges, blocks included.
func (col *collected) componentEdges(cs *Components) []int64 {
	edges := make([]int64, cs.Count())
	for _, buf := range col.bufs {
		for _, e := range buf {
			a, _ := unpack(e)
			edges[cs.comp[a]]++
		}
	}
	for _, bl := range col.blocks {
		a, c := unpack(bl)
		edges[cs.comp[col.cb.locals.row(int(a))[0]]] += int64(col.cb.edges(int(a), int(c)))
	}
	return edges
}

// fillDense sets the bits of every dense component's block: tested
// edges one bit pair at a time, accepted blocks by member masks.
func (g *Graph) fillDense(col *collected) {
	cs := g.cs
	for _, buf := range col.bufs {
		for _, e := range buf {
			a, b := unpack(e)
			c := int(cs.comp[a])
			if g.isCSR(c) {
				continue
			}
			ra, rb := int(cs.rank[a]), int(cs.rank[b])
			g.rowWords(c, ra)[rb/64] |= 1 << uint(rb%64)
			g.rowWords(c, rb)[ra/64] |= 1 << uint(ra%64)
		}
	}
	for _, bl := range col.blocks {
		a, b := unpack(bl)
		if c := int(cs.comp[col.cb.locals.row(int(a))[0]]); !g.isCSR(c) {
			col.cb.fill(g, c, int(a), int(b))
		}
	}
}

// MaximalMotionsOfComponent enumerates every maximal motion among the
// devices of component c — each exactly once — as sorted device-id sets
// plus bitsets over the component's ranks, in the id sets'
// lexicographic order. One call serves the whole component: the maximal
// motions containing any member are exactly the reported motions that
// include it, because a motion containing a vertex never leaves the
// vertex's component. cs must be the graph's own decomposition,
// g.Components(); a dense component is enumerated on its block in place,
// a CSR component one anchored neighbourhood at a time.
func (g *Graph) MaximalMotionsOfComponent(c int, cs *Components) ([][]int, []*sets.Bits) {
	var out motionFamily
	sc := getScratch()
	g.componentMotions(sc, c, &out)
	putScratch(sc)
	sortMotionFamily(&out)
	return out.ids, out.cliques
}

// componentMotions appends the maximal motions of component c to out.
func (g *Graph) componentMotions(sc *bkScratch, c int, out *motionFamily) {
	verts := g.cs.Verts(c)
	s := len(verts)
	// report appends a clique given over the positions of sub (sorted
	// ranks), or over the ranks themselves when sub is nil. Ranks and ids
	// both follow local order, so ids come out sorted.
	report := func(sub sets.Sorted) func(*sets.Bits) {
		return func(clique *sets.Bits) {
			ids := make([]int, 0, clique.Len())
			bits := clique
			if sub != nil {
				bits = sets.NewBits(s)
			}
			clique.ForEach(func(i int) bool {
				if sub != nil {
					i = int(sub[i])
					bits.Add(i)
				}
				ids = append(ids, g.ids[verts[i]])
				return true
			})
			out.ids = append(out.ids, ids)
			out.cliques = append(out.cliques, bits)
		}
	}
	if !g.isCSR(c) {
		rows := g.blockRows(sc, c)
		r := sc.lease(s)
		p := sc.lease(s)
		for i := 0; i < s; i++ {
			p.Add(i)
		}
		x := sc.lease(s)
		bkOver(rows, r, p, x, sc, report(nil))
		sc.put(x)
		sc.put(p)
		sc.put(r)
		return
	}
	// Anchored enumeration: walking ranks in ascending order and
	// restricting candidates to later neighbours / exclusions to earlier
	// ones reports each maximal clique exactly once — anchored at its
	// smallest member — inside a neighbourhood-sized subgraph, so
	// scratch stays O(Δ²/64) however large the component.
	for v := int32(0); v < int32(s); v++ {
		nverts := g.csrRow(c, int(v)).InsertInto(v, sc.verts[:0])
		sub := g.densify(sc, c, nverts)
		sv := len(nverts)
		r := sc.lease(sv)
		r.Add(searchSorted(nverts, v))
		p := sc.lease(sv)
		x := sc.lease(sv)
		for i, u := range nverts {
			if u > v {
				p.Add(i)
			} else if u < v {
				x.Add(i)
			}
		}
		bkOver(sub, r, p, x, sc, report(nverts))
		sc.put(x)
		sc.put(p)
		sc.put(r)
		sc.verts = nverts[:0]
	}
}
