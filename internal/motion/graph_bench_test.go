package motion

import (
	"fmt"
	"testing"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// benchRadius follows the paper's §VII-A dimensioning at the benchmark's
// base scales: r = 0.01 keeps the expected error-ball population at the
// paper's operating point for the fleets up to n = 100k that the
// BENCH_*.json trajectory has tracked since PR 2.
const benchRadius = 0.01

// benchMillionRadius applies the same dimensioning rule at n = 1M: the
// radius shrinks with the fleet ((2r)² · n held at the paper's level, the
// rule BenchmarkCharacterizeLargeFleet documents), giving r = 0.001 —
// without it a million uniform devices at r = 0.01 would carry ~10⁹
// edges and no adjacency representation could hold the window.
const benchMillionRadius = 0.001

// benchClusterPop fixes the per-cluster population of the "clustered"
// placement at 500 devices — the §VII-A operating point: a massive event
// touches a bounded neighbourhood, so local density stays constant as
// the fleet grows and the cluster count scales with n instead. (Up to
// n = 10k this matches the 20 fixed clusters the trajectory recorded
// since PR 2; from n = 100k the old shape would grow per-cluster
// population — and the edge count — linearly with n, which no sparse
// representation can absorb and no dimensioned deployment produces.)
const benchClusterPop = 500

// benchGraphPair builds one observation window for the construction
// benchmarks. Placement "sparse" spreads devices uniformly over the
// hypercube (the paper's S_0); "clustered" packs them into tight
// clusters of side 6r and ~benchClusterPop devices each, the shape of a
// window dominated by massive events, where cells are crowded and the
// grid prunes least.
func benchGraphPair(tb testing.TB, n int, placement string, radius float64) *Pair {
	tb.Helper()
	rng := stats.NewRNG(int64(n) + int64(len(placement)))
	prev, err := space.NewState(n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	switch placement {
	case "sparse":
		prev.Uniform(rng.Float64)
	case "clustered":
		clusters := n / benchClusterPop
		if clusters < 20 {
			clusters = 20
		}
		centers := make([]space.Point, clusters)
		for i := range centers {
			centers[i] = space.Point{rng.Float64(), rng.Float64()}
		}
		for j := 0; j < n; j++ {
			c := centers[j%clusters]
			pt := space.Point{
				c[0] + (2*rng.Float64()-1)*3*radius,
				c[1] + (2*rng.Float64()-1)*3*radius,
			}
			if err := prev.Set(j, pt.Clamp()); err != nil {
				tb.Fatal(err)
			}
		}
	default:
		tb.Fatalf("unknown placement %q", placement)
	}
	cur := prev.Clone()
	for j := 0; j < n; j++ {
		pt := cur.AtClone(j)
		for i := range pt {
			pt[i] += (2*rng.Float64() - 1) * radius
		}
		if err := cur.Set(j, pt); err != nil {
			tb.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		tb.Fatal(err)
	}
	return pair
}

// BenchmarkNewGraph measures motion-graph construction: the production
// grid-indexed path (dense bitset rows up to sparseMinVertices, the
// parallel CSR build beyond — so n >= 10k entries exercise the hybrid's
// sparse side) against the recorded all-pairs baseline, at growing
// vertex counts and both placements. The all-pairs baseline stops at
// n=10k — beyond that its quadratic scan is the point of the exercise —
// and the n=1M sparse entry is skipped under -short. Run with -benchmem;
// scripts/benchgate gates the n=100k bytes and the n=1M allocations.
func BenchmarkNewGraph(b *testing.B) {
	for _, placement := range []string{"sparse", "clustered"} {
		for _, n := range []int{1_000, 10_000, 100_000} {
			pair := benchGraphPair(b, n, placement, benchRadius)
			ids := allIds(n)
			b.Run(fmt.Sprintf("grid/%s/n=%d", placement, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					NewGraph(pair, ids, benchRadius)
				}
			})
			if n > 10_000 {
				continue
			}
			b.Run(fmt.Sprintf("allpairs/%s/n=%d", placement, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					newGraphAllPairs(pair, ids, benchRadius)
				}
			})
		}
	}
	b.Run("storm/m=3000", func(b *testing.B) {
		// The storm-200k window shape: six 500-device R2 clusters (3,000
		// devices, each one r-consistent block) plus 40 lone gateways.
		pair := r2Storm(b, 6, 40, 0)
		ids := allIds(pair.N())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewGraph(pair, ids, r2Radius)
		}
	})
	b.Run("grid/sparse/n=1000000", func(b *testing.B) {
		if testing.Short() {
			b.Skip("million-device window build is for the full bench run")
		}
		pair := benchGraphPair(b, 1_000_000, "sparse", benchMillionRadius)
		ids := allIds(1_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewGraph(pair, ids, benchMillionRadius)
		}
	})
}

// BenchmarkMaximalMotionsOfComponent measures the per-component
// enumeration on one s-clique — a DSLAM-sized motion and four times
// that. The densification range-copies each row and the bounded pivot
// makes one intersection count per recursion level, so the cost should
// grow near-linearly in s at these sizes, not with s² or s³.
func BenchmarkMaximalMotionsOfComponent(b *testing.B) {
	for _, s := range []int{500, 2000} {
		b.Run(fmt.Sprintf("clique/s=%d", s), func(b *testing.B) {
			pair, r, _ := cliquePair(b, s, 0, false)
			g := NewGraph(pair, allIds(s), r)
			cs := g.Components()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.MaximalMotionsOfComponent(0, cs)
			}
		})
	}
}

// TestNewGraphGridAllocs pins the allocation profile of the dense grid
// build: a small constant — the slab-backed adjacency rows, the flat
// grid index's slabs and the walk bookkeeping — independent of vertex,
// cell and edge count alike (~20 measured; the map-based index plus
// per-row bitsets this replaced paid thousands at this size).
func TestNewGraphGridAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const n = 2000
	pair := benchGraphPair(t, n, "sparse", benchRadius)
	ids := allIds(n)
	got := testing.AllocsPerRun(5, func() {
		newGraphGrid(pair, ids, benchRadius)
	})
	if limit := 128.0; got > limit {
		t.Errorf("grid build allocates %.0f times for %d vertices, want <= %.0f", got, n, limit)
	}
}

// TestNewGraphSparseAllocs pins the allocation profile of the sparse
// CSR build: a small constant plus one edge-buffer chunk per ~32k edges
// and a few slices per worker — emphatically not per vertex, per cell
// or per edge (~34 measured at this size; the map-based grid index
// alone paid ~6 per occupied cell before the flat rewrite). The CSR
// arena itself is 2 allocations however many edges the window carries.
func TestNewGraphSparseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const n = 8192
	pair := benchGraphPair(t, n, "sparse", benchRadius)
	ids := allIds(n)
	got := testing.AllocsPerRun(5, func() {
		NewGraph(pair, ids, benchRadius)
	})
	if limit := 512.0; got > limit {
		t.Errorf("sparse build allocates %.0f times for %d vertices, want <= %.0f", got, n, limit)
	}
}
