package dist

import (
	"errors"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"anomalia/internal/core"
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

// TestViewMatchesBruteForce: the sharded block lookup must return
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

// TestViewStatsStable: refetching the same view must bill the same
// logical cost — stats are a pure function of the window.
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

// TestBlockCacheShared: the members of a compact massive event share
// one cell, hence one block with no remainder, so DecideAll bills every
// member the same and every member's view is the whole event.
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
	if dir.cellOf[0] != dir.cellOf[n-1] {
		t.Fatalf("fixture: devices span cells %v, want one", dir.cellOf)
	}
	var b block
	dir.buildBlock(int(dir.cellOf[0]), &b)
	if len(b.rest) != 0 {
		t.Errorf("the event's block has remainder %v, want none", b.rest)
	}
	decs, _, err := DecideAll(dir, core.Config{R: 0.06, Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Messages: decs[0].Stats.Messages, Trajectories: n - 1, ViewSize: n}
	for _, j := range abnormal {
		view, st, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(view, abnormal) {
			t.Errorf("device %d: view %v, want the whole event", j, view)
		}
		if st != want || decs[j].Stats != want {
			t.Errorf("device %d: View bills %+v, DecideAll %+v, want %+v", j, st, decs[j].Stats, want)
		}
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
	for _, j := range step.Abnormal {
		center := dir.geom.Coords(step.Pair.Prev.At(j), nil)
		var lookup, scan block
		dir.lookupBlock(center, &lookup)
		dir.scanBlock(center, &scan)
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
	if _, _, err := dir.View(1); !errors.Is(err, errUnknownDevice) {
		t.Errorf("unindexed device: got %v, want errUnknownDevice", err)
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
	if got := dir.abnormal; len(got) != 0 {
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
