package motion

import (
	"fmt"
	"math"
	"testing"

	"anomalia/internal/grid"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// sameAdjacency fails the test unless the two graphs have identical
// vertex sets, identical edge sets and identical degrees (which also
// rules out a stray self bit in a row).
func sameAdjacency(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d vertices, want %d", label, got.Len(), want.Len())
	}
	ids := want.Ids()
	for _, id := range ids {
		if g, w := got.Degree(id), want.Degree(id); g != w {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, id, g, w)
		}
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			g, w := got.Adjacent(ids[i], ids[j]), want.Adjacent(ids[i], ids[j])
			if g != w {
				t.Fatalf("%s: edge (%d,%d) grid=%v allpairs=%v", label, ids[i], ids[j], g, w)
			}
		}
	}
}

// boundaryPair builds a pair where a fraction of the devices sit exactly
// on cell-boundary multiples of the grid side 2r (the coordinates where
// floating-point cell assignment is most fragile) and the rest are
// uniform; the second state adds a shift of up to maxShift.
func boundaryPair(t testing.TB, rng *stats.RNG, n, d int, r, maxShift float64) *Pair {
	t.Helper()
	prm := grid.ForRadius(r)
	prev, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	prev.Uniform(rng.Float64)
	for j := 0; j < n/2; j++ {
		pt := make(space.Point, d)
		for i := range pt {
			pt[i] = math.Min(1, float64(rng.Intn(prm.Res+1))*prm.Side)
		}
		if err := prev.Set(j, pt); err != nil {
			t.Fatal(err)
		}
	}
	cur := prev.Clone()
	for j := 0; j < n; j++ {
		pt := cur.AtClone(j)
		for i := range pt {
			pt[i] += (2*rng.Float64() - 1) * maxShift
		}
		if err := cur.Set(j, pt); err != nil { // Set clamps into [0,1]
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestNewGraphGridMatchesAllPairs: the grid-indexed build must produce
// adjacency identical to the all-pairs oracle across radii (including
// the r = 0 and r -> 1/4 edges), dimensions, and placements — uniform,
// clustered, coincident, and devices exactly on cell boundaries.
func TestNewGraphGridMatchesAllPairs(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(424242)
	radii := []float64{0, 1e-9, 0.001, 0.01, 0.03, 0.1, 0.2499999}
	for trial := 0; trial < 30; trial++ {
		n := gridBuildMinVertices + 6 + rng.Intn(150)
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
		// A few exactly-coincident devices exercise the r = 0 edge.
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
		sameAdjacency(t, label, newGraphGrid(pair, ids, r), newGraphAllPairs(pair, ids, r))

		// Sparse id subsets (the realistic abnormal-set shape) must agree
		// too, including out-of-range ids that both builds discard.
		subset := make([]int, 0, n/2)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				subset = append(subset, j)
			}
		}
		subset = append(subset, -3, n+17)
		sameAdjacency(t, label+" subset", newGraphGrid(pair, subset, r), newGraphAllPairs(pair, subset, r))
	}

	// R2 mass events: clusters inside one cell and straddling two and
	// four, one-ulp blocks at either time, coincident devices — whole
	// windows and non-contiguous subsets, through the grid build and
	// through NewGraph.
	for _, fx := range r2Fixtures(t) {
		n := fx.pair.N()
		ids := allIds(n)
		oracle := newGraphAllPairs(fx.pair, ids, r2Radius)
		sameAdjacency(t, fx.name, newGraphGrid(fx.pair, ids, r2Radius), oracle)
		sameAdjacency(t, fx.name+" NewGraph", NewGraph(fx.pair, ids, r2Radius), oracle)
		var subset []int
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				subset = append(subset, j)
			}
		}
		sameAdjacency(t, fx.name+" subset", newGraphGrid(fx.pair, subset, r2Radius), newGraphAllPairs(fx.pair, subset, r2Radius))
	}

	// An R2 storm of at least sparseMinVertices vertices takes the
	// collected build, whose edge density picks dense rows.
	storm := r2CollectedStorm(t)
	ids := allIds(storm.N())
	g := NewGraph(storm, ids, r2Radius)
	if g.Len() < sparseMinVertices || g.Sparse() {
		t.Fatalf("storm: %d vertices, sparse=%v; want >= %d vertices in dense rows", g.Len(), g.Sparse(), sparseMinVertices)
	}
	sameAdjacency(t, "storm", g, newGraphAllPairs(storm, ids, r2Radius))
}

// TestNewGraphUsesGridBuild pins the dispatch thresholds: big vertex
// sets go through the grid build, small ones through the all-pairs scan,
// and both public paths agree with the oracle regardless.
func TestNewGraphUsesGridBuild(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(7)
	for _, n := range []int{gridBuildMinVertices - 1, gridBuildMinVertices, 3 * gridBuildMinVertices} {
		pair := randomPair(t, rng, n, 2, 1.0)
		r := 0.05
		label := fmt.Sprintf("n=%d", n)
		sameAdjacency(t, label, NewGraph(pair, allIds(n), r), newGraphAllPairs(pair, allIds(n), r))
	}
}

// TestNewGraphHighDimension: at dimensions where the (2*reach+1)^d
// neighbour fan-out dwarfs the vertex count, NewGraph must dispatch to
// the all-pairs build instead of walking an exponential offset set —
// and still return the correct graph in bounded time.
func TestNewGraphHighDimension(t *testing.T) {
	t.Parallel()

	if gridBuildWorthwhile(space.MaxDim, 1<<20) {
		t.Fatalf("gridBuildWorthwhile(%d, 1M) = true; the grid walk would enumerate 5^%d offsets", space.MaxDim, space.MaxDim)
	}
	rng := stats.NewRNG(13)
	n := gridBuildMinVertices + 10
	pair := randomPair(t, rng, n, space.MaxDim, 0.2)
	sameAdjacency(t, "high-dim", NewGraph(pair, allIds(n), 0.05), newGraphAllPairs(pair, allIds(n), 0.05))
}

// edgeWords is the capacity, in edges, of every chunk g's build memory
// still reaches: each sink's open, collected and spare chunks, and the
// chunk list of a multi-worker build.
func edgeWords(g *Graph) int {
	n := 0
	for _, c := range g.mem.chunks[:cap(g.mem.chunks)] {
		n += cap(c)
	}
	for _, s := range g.mem.sinks[:cap(g.mem.sinks)] {
		n += cap(s.cur)
		for _, c := range append(s.chunks[:cap(s.chunks)], s.spare[:cap(s.spare)]...) {
			n += cap(c)
		}
	}
	return n
}

// TestBuildShedsWideBuild pins the shrink rule of package slab on the
// edge memory of a multi-worker build: after an edge-dense window
// collected on 4 workers (~450k edges) and three small windows built on
// one, the sinks — the ones the small builds leave idle too — keep at
// most one floor's worth of chunks between them, and the wide build's
// chunk list is gone.
func TestBuildShedsWideBuild(t *testing.T) {
	const workers, r = 4, 0.01
	big := clusterCliquePair(t, stats.NewRNG(3), 3000, 300, r)
	g := new(Graph).setVertices(big, allIds(3000), r)
	g.build(grid.ForRadius(r), false, workers, false)
	wide := edgeWords(g)
	if wide <= 2*workers*edgeChunkLen {
		t.Fatalf("the wide build reaches %d edge words, want a window denser than %d", wide, 2*workers*edgeChunkLen)
	}
	small := clusterCliquePair(t, stats.NewRNG(4), 20, 5, r)
	for k := 0; k < 3; k++ {
		g.Refill(small, allIds(20), r)
	}
	held := edgeWords(g)
	t.Logf("the build memory reaches %d edge words after the small windows, %d after the wide one", held, wide)
	if held > edgeChunkLen {
		t.Errorf("after three small windows the build memory reaches %d of the wide build's %d edge words, want at most %d", held, wide, edgeChunkLen)
	}
}
