package motion

import (
	"testing"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// TestDenseWorthwhile pins the density-adaptive decision rule at its
// boundary: dense rows win exactly when the CSR arena (one word per
// edge) would be no smaller than the m·ceil(m/64)-word dense adjacency.
func TestDenseWorthwhile(t *testing.T) {
	t.Parallel()

	if denseWorthwhile(4096, 4096*64-1) {
		t.Error("edge count below the dense footprint must stay CSR")
	}
	if !denseWorthwhile(4096, 4096*64) {
		t.Error("edge count at the dense footprint must pick dense rows")
	}
	if denseWorthwhile(100000, 10_000_000) {
		t.Error("uniform fleets at scale must never pick dense rows")
	}
}

// clusterCliquePair packs n devices into n/clusterPop clusters of side
// <= 2r (every intra-cluster pair adjacent — the edge-dense massive-
// event shape), stationary across the window.
func clusterCliquePair(t *testing.T, rng *stats.RNG, n, clusterPop int, r float64) *Pair {
	t.Helper()
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	clusters := n / clusterPop
	centers := make([]space.Point, clusters)
	for i := range centers {
		centers[i] = space.Point{rng.Float64(), rng.Float64()}
	}
	for j := 0; j < n; j++ {
		c := centers[j%clusters]
		pt := space.Point{
			c[0] + (2*rng.Float64()-1)*r,
			c[1] + (2*rng.Float64()-1)*r,
		}
		if err := prev.Set(j, pt.Clamp()); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestNewGraphDensityAdaptive: the representation follows each
// component, not the window. A uniform window above componentDenseMax
// vertices falls apart into small components, each a dense block, and
// matches the all-pairs oracle; an edge-dense clustered window keeps
// dense blocks too, and agrees with the forced-CSR build on the full
// read and enumeration surface.
func TestNewGraphDensityAdaptive(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("adaptive-choice graphs are thousands of vertices")
	}

	rng := stats.NewRNG(20260729)
	const n = 4500
	const r = 0.01

	uniform := randomPair(t, rng, n, 2, 1.0)
	g := NewGraph(uniform, allIds(n), r)
	if g.Sparse() {
		t.Fatal("a uniform window's small components must keep dense blocks")
	}
	sameAdjacency(t, "uniform", g, newGraphAllPairs(uniform, allIds(n), r))

	pair := clusterCliquePair(t, rng, n, 500, r)
	dense := NewGraph(pair, allIds(n), r)
	if dense.Sparse() {
		t.Fatal("edge-dense clustered window must pick dense rows")
	}
	csr := newGraphSparse(pair, allIds(n), r, 0)
	if !csr.Sparse() {
		t.Fatal("forced CSR build is not in sparse mode")
	}
	for v := 0; v < n; v++ {
		if gd, wd := dense.Degree(v), csr.Degree(v); gd != wd {
			t.Fatalf("Degree(%d) = %d dense, %d csr", v, gd, wd)
		}
	}
	for trial := 0; trial < 200_000; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if g, w := dense.Adjacent(a, b), csr.Adjacent(a, b); g != w {
			t.Fatalf("Adjacent(%d,%d) = %v dense, %v csr", a, b, g, w)
		}
	}
	for _, j := range []int{0, 1, n / 2, n - 1} {
		gm := dense.MaximalMotionsContaining(j)
		wm := csr.MaximalMotionsContaining(j)
		if !sameFamily(gm, wm) {
			t.Fatalf("MaximalMotionsContaining(%d): %d motions dense, %d csr — %v vs %v",
				j, len(gm), len(wm), gm, wm)
		}
	}
}

// TestNewGraphDensityAdaptiveSubset: the adaptive dense path must also
// handle non-contiguous id subsets (binary-search Local, no per-id map)
// at sizes above the collection threshold.
func TestNewGraphDensityAdaptiveSubset(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("adaptive-choice graphs are thousands of vertices")
	}

	rng := stats.NewRNG(42)
	const n = 9500
	const r = 0.01
	pair := clusterCliquePair(t, rng, n, 500, r)
	subset := make([]int, 0, n/2)
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			subset = append(subset, j)
		}
	}
	dense := NewGraph(pair, subset, r)
	if dense.Sparse() {
		t.Fatal("edge-dense clustered subset must pick dense rows")
	}
	csr := newGraphSparse(pair, subset, r, 3)
	for _, v := range subset {
		if gd, wd := dense.Degree(v), csr.Degree(v); gd != wd {
			t.Fatalf("Degree(%d) = %d dense, %d csr", v, gd, wd)
		}
	}
	if dense.Has(1) || dense.Degree(1) != -1 {
		t.Fatal("odd ids must not be vertices")
	}
	for trial := 0; trial < 100_000; trial++ {
		a, b := subset[rng.Intn(len(subset))], subset[rng.Intn(len(subset))]
		if g, w := dense.Adjacent(a, b), csr.Adjacent(a, b); g != w {
			t.Fatalf("Adjacent(%d,%d) = %v dense, %v csr", a, b, g, w)
		}
	}
}

// TestClusterCliquePairIsEdgeDense guards against silent fixture drift:
// the adaptive tests rely on the clustered shape actually crossing the
// edge threshold, so pin it explicitly.
func TestClusterCliquePairIsEdgeDense(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("edge counting builds a thousands-of-vertices graph")
	}

	rng := stats.NewRNG(7)
	const n = 4500
	g := newGraphSparse(clusterCliquePair(t, rng, n, 500, 0.01), allIds(n), 0.01, 0)
	edges := 0
	for v := 0; v < n; v++ {
		edges += g.Degree(v)
	}
	edges /= 2
	if !denseWorthwhile(n, edges) {
		t.Fatalf("cluster fixture carries %d edges — below the dense threshold %d",
			edges, n*((n+63)/64))
	}
}
