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
