package dist

import (
	"errors"
	"hash/fnv"
	"sort"
	"testing"

	"anomalia/internal/grid"
	"anomalia/internal/motion"
	"anomalia/internal/scenario"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// window generates one seeded observation window with ground truth.
func genWindow(t testing.TB, cfg scenario.Config) *scenario.Step {
	t.Helper()
	gen, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step, err := gen.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Abnormal) == 0 {
		t.Fatal("window has no abnormal devices")
	}
	return step
}

// pairOf builds a Pair directly from coordinate rows.
func pairOf(t *testing.T, prev, cur [][]float64) *motion.Pair {
	t.Helper()
	ps, err := space.StateFromPoints(prev)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := space.StateFromPoints(cur)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := motion.NewPair(ps, cs)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestViewMatchesBruteForce: the sharded, cached lookup must return
// exactly the devices within 4r at both window endpoints — the set the
// brute-force scan finds.
func TestViewMatchesBruteForce(t *testing.T) {
	t.Parallel()

	const r = 0.03
	for _, concomitant := range []bool{false, true} {
		step := genWindow(t, scenario.Config{
			N: 400, D: 2, R: r, Tau: 3, A: 20, G: 0.3,
			Concomitant: concomitant, MaxShift: 2 * r, Seed: 11,
		})
		dir, err := NewDirectory(step.Pair, step.Abnormal, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range step.Abnormal {
			got, st, err := dir.View(j)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for _, i := range step.Abnormal {
				if step.Pair.Prev.Dist(i, j) <= 4*r && step.Pair.Cur.Dist(i, j) <= 4*r {
					want = append(want, i)
				}
			}
			if !sets.EqualInts(got, want) {
				t.Fatalf("device %d: view %v != brute force %v", j, got, want)
			}
			if st.ViewSize != len(got) || st.Trajectories != len(got)-1 {
				t.Fatalf("device %d: stats %+v inconsistent with view of %d", j, st, len(got))
			}
			if st.Messages < 2 {
				t.Fatalf("device %d: %d messages, want >= 2 (request + own shard)", j, st.Messages)
			}
		}
	}
}

// TestViewStatsStable: refetching the same view (cache hit) must bill
// the same logical cost — stats never depend on cache state.
func TestViewStatsStable(t *testing.T) {
	t.Parallel()

	const r = 0.03
	step := genWindow(t, scenario.Config{
		N: 300, D: 2, R: r, Tau: 3, A: 10, G: 0.5,
		Concomitant: true, MaxShift: 2 * r, Seed: 5,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range step.Abnormal {
		_, first, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		_, again, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("device %d: stats changed across calls: %+v then %+v", j, first, again)
		}
	}
}

// TestBlockCacheShared: devices in the same cell share one cached block,
// so a compact massive event costs one block build, not one per device.
func TestBlockCacheShared(t *testing.T) {
	t.Parallel()

	const n = 12
	prev := make([][]float64, n)
	cur := make([][]float64, n)
	for i := range prev {
		// All devices inside one ball of radius r around (0.5, 0.5),
		// moved coherently to (0.2, 0.2): one massive event.
		eps := 0.001 * float64(i)
		prev[i] = []float64{0.5 + eps, 0.5 - eps}
		cur[i] = []float64{0.2 + eps, 0.2 - eps}
	}
	pair := pairOf(t, prev, cur)
	abnormal := make([]int, n)
	for i := range abnormal {
		abnormal[i] = i
	}
	dir, err := NewDirectory(pair, abnormal, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range abnormal {
		if _, _, err := dir.View(j); err != nil {
			t.Fatal(err)
		}
	}
	built, hits := dir.CacheStats()
	if built > 2 {
		t.Errorf("co-located devices built %d blocks, want <= 2", built)
	}
	if hits < int64(n)-built {
		t.Errorf("expected >= %d cache hits, got %d", int64(n)-built, hits)
	}
}

// TestBlockStrategiesAgree: the direct neighbour-cell lookup and the
// occupied-cell scan must produce identical blocks — candidates and
// shard fan-out — for every occupied center cell.
func TestBlockStrategiesAgree(t *testing.T) {
	t.Parallel()

	const r = 0.03
	step := genWindow(t, scenario.Config{
		N: 400, D: 2, R: r, Tau: 3, A: 30, G: 0.7,
		Concomitant: true, MaxShift: 2 * r, Seed: 19,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	w := dir.win.Load()
	for _, j := range step.Abnormal {
		center := dir.geom.Coords(step.Pair.Prev.At(j), nil)
		var lookup, scan block
		dir.lookupBlock(w, center, &lookup)
		dir.scanBlock(w, center, &scan)
		sort.Ints(lookup.cands)
		sort.Ints(scan.cands)
		if !sets.EqualInts(lookup.cands, scan.cands) {
			t.Fatalf("device %d: lookup candidates %v != scan candidates %v",
				j, lookup.cands, scan.cands)
		}
		if lookup.shards != scan.shards {
			t.Fatalf("device %d: lookup fan-out %d != scan fan-out %d", j, lookup.shards, scan.shards)
		}
	}
}

// TestDirectoryErrors covers the rejection paths.
func TestDirectoryErrors(t *testing.T) {
	t.Parallel()

	pair := pairOf(t,
		[][]float64{{0.1, 0.1}, {0.9, 0.9}},
		[][]float64{{0.1, 0.1}, {0.9, 0.9}})

	if _, err := NewDirectory(nil, nil, 0.06); !errors.Is(err, ErrConfig) {
		t.Errorf("nil pair: got %v, want ErrConfig", err)
	}
	if _, err := NewDirectory(pair, []int{0}, 0.3); !errors.Is(err, ErrConfig) {
		t.Errorf("radius outside [0, 1/4): got %v, want ErrConfig", err)
	}
	if _, err := NewDirectory(pair, []int{0}, -0.1); !errors.Is(err, ErrConfig) {
		t.Errorf("negative radius: got %v, want ErrConfig", err)
	}
	if dir, err := NewDirectory(pair, []int{0, 1}, 0); err != nil {
		t.Errorf("r = 0 must build a degenerate single-cell directory: %v", err)
	} else if view, _, err := dir.View(0); err != nil || len(view) != 1 || view[0] != 0 {
		t.Errorf("r = 0 view must be the coincident devices only, got %v (%v)", view, err)
	}
	if _, err := NewDirectory(pair, []int{0, 7}, 0.06); !errors.Is(err, ErrConfig) {
		t.Errorf("out-of-range id: got %v, want ErrConfig", err)
	}
	dir, err := NewDirectory(pair, []int{0}, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dir.View(1); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unindexed device: got %v, want ErrUnknownDevice", err)
	}
}

// TestEmptyDirectory: an empty abnormal set builds an empty but usable
// directory (the streaming path may see windows with no abnormal device).
func TestEmptyDirectory(t *testing.T) {
	t.Parallel()

	pair := pairOf(t, [][]float64{{0.5, 0.5}}, [][]float64{{0.5, 0.5}})
	dir, err := NewDirectory(pair, nil, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if got := dir.Abnormal(); len(got) != 0 {
		t.Errorf("empty directory indexes %v", got)
	}
}

// TestShardOfCoordsMatchesFNV pins the inlined shard hash byte-identical
// to hash/fnv over the collision-free key encoding — the assignment the
// reproducible Stats.Messages tables stand on.
func TestShardOfCoordsMatchesFNV(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(99)
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(space.MaxDim)
		coords := make([]int, dim)
		for i := range coords {
			coords[i] = rng.Intn(1 << 30)
		}
		h := fnv.New32a()
		h.Write(grid.AppendKey(nil, coords))
		want := int(h.Sum32() % numShards)
		if got := shardOfCoords(coords); got != want {
			t.Fatalf("shardOfCoords(%v) = %d, fnv says %d", coords, got, want)
		}
	}
}

// TestNewDirectoryAllocs pins the slab-allocated build: indexing a
// window's abnormal set is a handful of allocations bounded by a small
// constant, not by the occupied-cell count (the map-based index it
// replaced paid one map entry, cell struct, coords slice and id-list
// growth per cell).
func TestNewDirectoryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const r = 0.01
	step := genWindow(t, scenario.Config{
		N: 10000, D: 2, R: r, Tau: 3, A: 100, G: 0.3,
		Concomitant: true, MaxShift: 2 * r, Seed: 4242,
	})
	got := testing.AllocsPerRun(10, func() {
		if _, err := NewDirectory(step.Pair, step.Abnormal, r); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 32.0; got > limit {
		t.Errorf("NewDirectory allocates %.0f times for %d abnormal devices, want <= %.0f",
			got, len(step.Abnormal), limit)
	}
}
