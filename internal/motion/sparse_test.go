package motion

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"anomalia/internal/stats"
)

// sameGraph fails the test unless the two graphs agree on vertices,
// every edge, every degree, and clique membership of sampled id sets —
// the full accessor surface the rest of the module reads adjacency
// through.
func sameGraph(t *testing.T, label string, rng *stats.RNG, got, want *Graph) {
	t.Helper()
	sameAdjacency(t, label, got, want)
	for _, id := range want.Ids() {
		if g, w := got.Degree(id), want.Degree(id); g != w {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, id, g, w)
		}
	}
	if got.Degree(-1) != -1 || got.Degree(1<<30) != -1 {
		t.Fatalf("%s: Degree of non-vertex is not -1", label)
	}
	// IsClique parity on sampled sets: actual motions (cliques by
	// construction), random id sets, and sets with a non-vertex.
	ids := want.Ids()
	for trial := 0; trial < 20; trial++ {
		size := 1 + rng.Intn(5)
		sample := make([]int, size)
		for i := range sample {
			sample[i] = ids[rng.Intn(len(ids))]
		}
		if g, w := got.IsClique(sample), want.IsClique(sample); g != w {
			t.Fatalf("%s: IsClique(%v) = %v, want %v", label, sample, g, w)
		}
	}
	if got.IsClique([]int{ids[0], -7}) {
		t.Fatalf("%s: IsClique accepted a non-vertex", label)
	}
}

// sameMotionFamilies fails unless every motion enumeration agrees
// between the two graphs: the whole-window families (pivoting and
// degeneracy-ordered) and each component's motions, whose bitsets must
// spell the same ids over the component's ranks in both adjacency
// modes.
func sameMotionFamilies(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	gm, wm := got.MaximalMotions(), want.MaximalMotions()
	if !sameFamily(gm, wm) {
		t.Fatalf("%s: MaximalMotions disagree:\n got %v\nwant %v", label, gm, wm)
	}
	gd := got.MaximalMotionsDegeneracy()
	if !sameFamily(gd, wm) {
		t.Fatalf("%s: MaximalMotionsDegeneracy disagrees:\n got %v\nwant %v", label, gd, wm)
	}
	gcs, wcs := got.Components(), want.Components()
	for c := 0; c < wcs.Count(); c++ {
		gids, gbits := got.MaximalMotionsOfComponent(c, gcs)
		wids, _ := want.MaximalMotionsOfComponent(c, wcs)
		if !reflect.DeepEqual(gids, wids) {
			t.Fatalf("%s: component %d motions disagree:\n got %v\nwant %v", label, c, gids, wids)
		}
		for i, mo := range gids {
			if b := gbits[i]; b.Universe() != gcs.Size(c) || !reflect.DeepEqual(gcs.AppendIds(b, c, nil), mo) {
				t.Fatalf("%s: component %d motion %d: bitset %v != ids %v", label, c, i, b, mo)
			}
		}
	}
}

// TestSparseMatchesDense: the CSR-backed graph must agree with the
// all-pairs dense oracle on the full read API and every enumeration,
// across radii edge cases, dimensions, and the placements of the
// grid-vs-allpairs harness (uniform, clustered, boundary-snapped,
// coincident) — plus sparse id subsets and worker counts from 1 to
// beyond the cell count.
func TestSparseMatchesDense(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(20260728)
	radii := []float64{0, 1e-9, 0.001, 0.01, 0.03, 0.1, 0.2499999}
	for trial := 0; trial < 18; trial++ {
		n := 260 + rng.Intn(160)
		d := 1 + rng.Intn(3)
		r := radii[trial%len(radii)]

		var pair *Pair
		switch trial % 3 {
		case 0: // uniform over the whole hypercube
			pair = randomPair(t, rng, n, d, 1.0)
		case 1: // clustered into a tight box so cells are crowded
			pair = randomPair(t, rng, n, d, math.Max(4*r, 0.05))
		default: // boundary-snapped with motion across the window
			pair = boundaryPair(t, rng, n, d, r, 3*r+1e-6)
		}
		for j := 0; j+1 < n; j += n / 4 {
			if err := pair.Prev.Set(j+1, pair.Prev.At(j)); err != nil {
				t.Fatal(err)
			}
			if err := pair.Cur.Set(j+1, pair.Cur.At(j)); err != nil {
				t.Fatal(err)
			}
		}

		label := fmt.Sprintf("trial %d (n=%d d=%d r=%v)", trial, n, d, r)
		ids := allIds(n)
		oracle := newGraphAllPairs(pair, ids, r)
		workers := 1 + trial%5
		sparse := newGraphSparse(pair, ids, r, workers)
		if !sparse.Sparse() {
			t.Fatalf("%s: forced sparse build is not in sparse mode", label)
		}
		sameGraph(t, label, rng, sparse, oracle)
		sameMotionFamilies(t, label, sparse, oracle)

		// Sparse id subsets (the realistic abnormal-set shape) must agree
		// too, including out-of-range ids that both builds discard.
		subset := make([]int, 0, n/2)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				subset = append(subset, j)
			}
		}
		subset = append(subset, -3, n+17)
		sameGraph(t, label+" subset", rng,
			newGraphSparse(pair, subset, r, workers), newGraphAllPairs(pair, subset, r))
	}

	// R2 mass events, whose accepted blocks the CSR merge expands: the
	// full read API and every enumeration must still agree.
	for i, fx := range r2Fixtures(t) {
		ids := allIds(fx.pair.N())
		oracle := newGraphAllPairs(fx.pair, ids, r2Radius)
		sparse := newGraphSparse(fx.pair, ids, r2Radius, 1+i%3)
		sameGraph(t, fx.name, rng, sparse, oracle)
		sameMotionFamilies(t, fx.name, sparse, oracle)
	}

	// The same storm window NewGraph builds into dense rows, pinned to
	// the CSR arena.
	storm := r2CollectedStorm(t)
	ids := allIds(storm.N())
	sparse := newGraphSparse(storm, ids, r2Radius, 2)
	if !sparse.Sparse() {
		t.Fatal("storm: forced sparse build is not in sparse mode")
	}
	sameGraph(t, "storm", rng, sparse, newGraphAllPairs(storm, ids, r2Radius))
}

// TestSparseMatchesDenseHighDimension: when the geometry rules the grid
// walk out, the sparse build must stripe an all-pairs scan and still
// agree with the dense oracle.
func TestSparseMatchesDenseHighDimension(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(17)
	n := 300
	pair := randomPair(t, rng, n, 9, 0.25)
	r := 0.05
	oracle := newGraphAllPairs(pair, allIds(n), r)
	for _, workers := range []int{1, 3} {
		sparse := newGraphSparse(pair, allIds(n), r, workers)
		if !sparse.Sparse() {
			t.Fatal("forced sparse build is not in sparse mode")
		}
		sameGraph(t, fmt.Sprintf("high-dim workers=%d", workers), rng, sparse, oracle)
		sameMotionFamilies(t, fmt.Sprintf("high-dim workers=%d", workers), sparse, oracle)
	}
}

// TestSparseHasDenseMotionContaining: the family form of the Theorem 7
// question must agree across representations over random allowed sets
// and thresholds, and with a brute force over (τ+1)-cliques through j
// wherever j has few allowed neighbours. Each graph's motions are
// indexed by member once per window.
func TestSparseHasDenseMotionContaining(t *testing.T) {
	t.Parallel()

	byMember := func(g *Graph) map[int][][]int {
		out := map[int][][]int{}
		for _, m := range g.MaximalMotions() {
			for _, id := range m {
				out[id] = append(out[id], m)
			}
		}
		return out
	}
	rng := stats.NewRNG(4242)
	bruteForced := 0
	for trial := 0; trial < 12; trial++ {
		n := 260 + rng.Intn(100)
		r := []float64{0.02, 0.05, 0.1}[trial%3]
		pair := randomPair(t, rng, n, 2, math.Max(6*r, 0.2))
		ids := allIds(n)
		oracle := newGraphAllPairs(pair, ids, r)
		sparse := newGraphSparse(pair, ids, r, 1+trial%4)
		oFam, sFam := byMember(oracle), byMember(sparse)
		for probe := 0; probe < 30; probe++ {
			j := rng.Intn(n)
			if !reflect.DeepEqual(sFam[j], oFam[j]) {
				t.Fatalf("trial %d: device %d: families differ:\n got %v\nwant %v", trial, j, sFam[j], oFam[j])
			}
			allowed := make([]int, 0, n/3)
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.3 {
					allowed = append(allowed, v)
				}
			}
			tau := 1 + rng.Intn(4)
			g := denseWithin(sFam[j], j, allowed, tau)
			w := denseWithin(oFam[j], j, allowed, tau)
			if g != w {
				t.Fatalf("trial %d: denseWithin(%d, |allowed|=%d, tau=%d) = %v, want %v",
					trial, j, len(allowed), tau, g, w)
			}
			var cand []int
			for _, v := range allowed {
				if v != j && oracle.Adjacent(j, v) {
					cand = append(cand, v)
				}
			}
			if len(cand) > 12 {
				continue
			}
			bruteForced++
			if b := denseCliqueThrough(oracle, j, cand, tau); b != w {
				t.Fatalf("trial %d: device %d, tau=%d, allowed neighbours %v: family says %v, brute force %v",
					trial, j, tau, cand, w, b)
			}
		}
	}
	if bruteForced == 0 {
		t.Fatal("no probe was small enough to brute force")
	}
}

// denseCliqueThrough reports whether some τ members of cand form a
// clique together with j, by trying every τ-subset.
func denseCliqueThrough(g *Graph, j int, cand []int, tau int) bool {
	if len(cand) < tau {
		return false
	}
	for mask := 0; mask < 1<<len(cand); mask++ {
		if bits.OnesCount(uint(mask)) != tau {
			continue
		}
		m := []int{j}
		for i, v := range cand {
			if mask&(1<<i) != 0 {
				m = append(m, v)
			}
		}
		if g.IsClique(m) {
			return true
		}
	}
	return false
}

// TestNewGraphCrossoverBoundary pins the representation at the
// component crossover: a chain component of componentDenseMax vertices
// keeps a dense block, one vertex more keeps CSR rows (a chain is far
// too edge-sparse for denseWorthwhile), and both sides agree with the
// all-pairs oracle on the full API.
func TestNewGraphCrossoverBoundary(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("crossover graphs are thousands of vertices")
	}

	for _, n := range []int{componentDenseMax, componentDenseMax + 1} {
		pair, r := chainPair(t, n)
		g := NewGraph(pair, allIds(n), r)
		label := fmt.Sprintf("crossover n=%d", n)
		if cs := g.Components(); cs.Count() != 1 {
			t.Fatalf("%s: chain split into %d components", label, cs.Count())
		}
		if wantSparse := n > componentDenseMax; g.Sparse() != wantSparse {
			t.Fatalf("%s: Sparse() = %v, want %v", label, g.Sparse(), wantSparse)
		}
		oracle := newGraphAllPairs(pair, allIds(n), r)
		sameAdjacency(t, label, g, oracle)
		if gm, wm := g.MaximalMotions(), oracle.MaximalMotions(); !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: MaximalMotions disagree", label)
		}
	}
}

// TestSparseEmptyAndTinyGraphs: the sparse machinery must tolerate the
// degenerate shapes the production dispatch never sends it.
func TestSparseEmptyAndTinyGraphs(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(3)
	pair := randomPair(t, rng, 8, 2, 0.1)
	empty := newGraphSparse(pair, nil, 0.05, 2)
	if empty.Len() != 0 {
		t.Fatalf("empty sparse graph has %d vertices", empty.Len())
	}
	if got := empty.MaximalMotionsDegeneracy(); len(got) != 0 {
		t.Fatalf("empty sparse graph enumerated %v", got)
	}
	one := newGraphSparse(pair, []int{3}, 0.05, 4)
	if got := one.MaximalMotions(); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 3 {
		t.Fatalf("singleton sparse graph enumerated %v", got)
	}
	if !one.Adjacent(3, 3) || one.Adjacent(3, 4) {
		t.Fatal("singleton adjacency wrong")
	}
}
