package motion

import (
	"reflect"
	"slices"
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// TestComponentsDecomposition: the decomposition must agree with a
// union-find oracle, number components by smallest vertex, keep member
// lists sorted, and assign ranks consistent with the member lists.
func TestComponentsDecomposition(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(909)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		pair := randomPair(t, rng, n, 2, 0.4)
		r := 0.02 + 0.06*rng.Float64()
		g := NewGraph(pair, allIds(n), r)
		cs := g.Components()

		// Union-find oracle over the adjacency.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(v int) int {
			if parent[v] != v {
				parent[v] = find(parent[v])
			}
			return parent[v]
		}
		for v := 0; v < n; v++ {
			g.forNeighbors(v, func(u int) bool {
				parent[find(v)] = find(u)
				return true
			})
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				same := find(a) == find(b)
				if got := cs.Of(a) == cs.Of(b); got != same {
					t.Fatalf("trial %d: Of(%d)==Of(%d) = %v, oracle %v", trial, a, b, got, same)
				}
			}
		}

		// Numbering by smallest member, ascending; sorted members; ranks;
		// every vertex a member of exactly one component.
		prevMin := -1
		covered := make([]bool, n)
		for c := 0; c < cs.Count(); c++ {
			verts := cs.Verts(c)
			if len(verts) != cs.Size(c) || len(verts) == 0 {
				t.Fatalf("trial %d: component %d size mismatch", trial, c)
			}
			if int(verts[0]) <= prevMin {
				t.Fatalf("trial %d: components not numbered by smallest vertex", trial)
			}
			prevMin = int(verts[0])
			for i, v := range verts {
				if i > 0 && verts[i-1] >= v {
					t.Fatalf("trial %d: component %d members not sorted", trial, c)
				}
				if cs.Of(int(v)) != c || cs.Rank(int(v)) != i || covered[v] {
					t.Fatalf("trial %d: vertex %d misfiled", trial, v)
				}
				covered[v] = true
			}
		}
		if i := slices.Index(covered, false); i >= 0 {
			t.Fatalf("trial %d: vertex %d in no component", trial, i)
		}
	}
}

// TestWholeGraphComponent: the identity decomposition must be a single
// component with identity ranks — the reference-oracle contract.
func TestWholeGraphComponent(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(11)
	pair := randomPair(t, rng, 25, 2, 0.4)
	g := NewGraph(pair, allIds(25), 0.05)
	cs := g.WholeGraphComponent()
	if cs.Count() != 1 || cs.Size(0) != 25 {
		t.Fatalf("Count/Size = %d/%d", cs.Count(), cs.Size(0))
	}
	for v := 0; v < 25; v++ {
		if cs.Of(v) != 0 || cs.Rank(v) != v || int(cs.Verts(0)[v]) != v {
			t.Fatalf("vertex %d not identity-mapped", v)
		}
	}

	empty := NewGraph(pair, nil, 0.05)
	if got := empty.WholeGraphComponent().Count(); got != 0 {
		t.Fatalf("empty graph Count = %d", got)
	}
}

// TestMaximalMotionsOfComponentMatchesPerDevice: the one-shot component
// enumeration must serve every member exactly the family the per-device
// enumeration reports — same id sets, same order, same projected
// bitsets.
func TestMaximalMotionsOfComponentMatchesPerDevice(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2024)
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(50)
		pair := randomPair(t, rng, n, 2, 0.4)
		r := 0.03 + 0.05*rng.Float64()
		g := NewGraph(pair, allIds(n), r)
		cs := g.Components()
		for c := 0; c < cs.Count(); c++ {
			moIds, moBits := g.MaximalMotionsOfComponent(c, cs)
			for _, mo := range moIds {
				if !g.IsClique(mo) {
					t.Fatalf("trial %d: reported non-clique %v", trial, mo)
				}
			}
			for i, v := range cs.Verts(c) {
				id := g.IDOf(int(v))
				wantIds, wantBits := g.MaximalMotionsContainingIn(id, cs)
				var gotIds [][]int
				var gotBits []*sets.Bits
				for mi := range moIds {
					if moBits[mi].Has(i) {
						gotIds = append(gotIds, moIds[mi])
						gotBits = append(gotBits, moBits[mi])
					}
				}
				if !reflect.DeepEqual(gotIds, wantIds) {
					t.Fatalf("trial %d device %d: component family %v != per-device %v",
						trial, id, gotIds, wantIds)
				}
				for mi := range gotBits {
					if !gotBits[mi].Equal(wantBits[mi]) || gotBits[mi].Universe() != wantBits[mi].Universe() {
						t.Fatalf("trial %d device %d: motion bitset %d differs", trial, id, mi)
					}
				}
			}
		}
	}
}

// TestMaximalMotionsOfComponentDenseOversized drives the oversized-
// component path of a dense-mode graph — the shape the density-adaptive
// build produces for edge-dense mass events (m above sparseMinVertices
// with a denseWorthwhile edge count) and that the CSR-only anchored
// fallback used to panic on. Devices are coincident at prev and sit in
// three group spots at cur, consecutive spots within 2r and the outer
// pair beyond it, so the single component of 3·group vertices carries
// exactly two maximal motions: groups 0∪1 and 1∪2.
func TestMaximalMotionsOfComponentDenseOversized(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("oversized dense component needs thousands of vertices")
	}

	const group = 1500
	n := 3 * group // > componentDenseMax
	r := 0.002
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := prev.Set(i, space.Point{0.2, 0.5}); err != nil {
			t.Fatal(err)
		}
		// Spot spacing 1.5r: adjacent spots within 2r, outer pair at 3r.
		x := 0.2 + float64(i/group)*1.5*r
		if err := cur.Set(i, space.Point{x, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(pair, allIds(n), r)
	if g.Sparse() {
		t.Fatal("edge-dense fixture expected a dense-mode graph")
	}
	cs := g.Components()
	if cs.Count() != 1 || cs.Size(0) != n {
		t.Fatalf("fixture split into %d components", cs.Count())
	}
	moIds, moBits := g.MaximalMotionsOfComponent(0, cs)
	if len(moIds) != 2 {
		t.Fatalf("%d maximal motions, want the 2 overlapping group pairs", len(moIds))
	}
	for mi, lo := range []int{0, group} {
		mo := moIds[mi]
		if len(mo) != 2*group || mo[0] != lo || mo[len(mo)-1] != lo+2*group-1 {
			t.Fatalf("motion %d spans [%d..%d] (%d devices), want [%d..%d]",
				mi, mo[0], mo[len(mo)-1], len(mo), lo, lo+2*group-1)
		}
		if !g.IsClique(mo) {
			t.Fatalf("motion %d is not a clique", mi)
		}
		b := moBits[mi]
		if b.Universe() != n || b.Len() != 2*group || !b.Has(lo) || !b.Has(lo+2*group-1) {
			t.Fatalf("motion %d bitset malformed", mi)
		}
	}
	// The component family must serve each member exactly its per-device
	// family: a group-0 device (first motion only), a shared group-1
	// device (both), and a group-2 device (second only).
	for _, id := range []int{0, n / 2, n - 1} {
		wantIds, wantBits := g.MaximalMotionsContainingIn(id, cs)
		var gotIds [][]int
		var gotBits []*sets.Bits
		li, _ := g.Local(id)
		for mi := range moIds {
			if moBits[mi].Has(cs.Rank(li)) {
				gotIds = append(gotIds, moIds[mi])
				gotBits = append(gotBits, moBits[mi])
			}
		}
		if !reflect.DeepEqual(gotIds, wantIds) {
			t.Fatalf("device %d: component family differs from per-device family", id)
		}
		for mi := range gotBits {
			if !gotBits[mi].Equal(wantBits[mi]) || gotBits[mi].Universe() != wantBits[mi].Universe() {
				t.Fatalf("device %d: motion bitset %d differs", id, mi)
			}
		}
	}
}

// TestMaximalMotionsOfComponentAnchored drives the oversized-component
// path (anchored per-vertex enumeration): a chain of devices spaced so
// that only consecutive devices are adjacent forms one component larger
// than componentDenseMax whose maximal cliques are exactly the
// consecutive pairs.
func TestMaximalMotionsOfComponentAnchored(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chain component needs thousands of vertices")
	}

	n := componentDenseMax + 150
	r := 0.00002
	step := 1.5 * r // within 2r of neighbours, beyond 2r of anyone else
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := space.Point{0.1 + float64(i)*step, 0.5}
		if err := prev.Set(i, p); err != nil {
			t.Fatal(err)
		}
		if err := cur.Set(i, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(pair, allIds(n), r)
	if !g.Sparse() {
		t.Fatal("chain fixture expected a sparse-mode graph")
	}
	cs := g.Components()
	if cs.Count() != 1 || cs.Size(0) != n {
		t.Fatalf("chain split into %d components", cs.Count())
	}
	moIds, moBits := g.MaximalMotionsOfComponent(0, cs)
	if len(moIds) != n-1 {
		t.Fatalf("%d maximal motions, want %d consecutive pairs", len(moIds), n-1)
	}
	for i, mo := range moIds {
		if len(mo) != 2 || mo[0] != i || mo[1] != i+1 {
			t.Fatalf("motion %d = %v, want [%d %d]", i, mo, i, i+1)
		}
		if moBits[i].Universe() != n || !moBits[i].Has(i) || !moBits[i].Has(i+1) || moBits[i].Len() != 2 {
			t.Fatalf("motion %d bitset %v malformed", i, moBits[i])
		}
	}
}
