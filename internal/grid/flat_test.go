package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// This file pins the slab-allocated flat index against a retained copy
// of the map-based index it replaced: the oracle below is the old
// map[string]*Cell construction, kept verbatim as the reference
// semantics for cells, ids, lookups, Within and PairWalk pair sets.

// mapCell mirrors the retired map-based cell.
type mapCell struct {
	coords []int
	ids    []int
}

// mapIndex is the retired map-based index build: one map entry, cell
// struct and coords slice per occupied cell, ids appended in indexing
// order.
func mapIndex(state *space.State, ids []int, p Params) map[string]*mapCell {
	cells := make(map[string]*mapCell, len(ids))
	var coords []int
	var buf []byte
	for _, id := range ids {
		coords = p.Coords(state.At(id), coords[:0])
		buf = AppendKey(buf[:0], coords)
		c, ok := cells[string(buf)]
		if !ok {
			c = &mapCell{coords: append([]int(nil), coords...)}
			cells[string(buf)] = c
		}
		c.ids = append(c.ids, id)
	}
	return cells
}

// mapWithin is the oracle for Within over the map index: exact distance
// filter over every indexed id, sorted.
func mapWithin(state *space.State, cells map[string]*mapCell, q space.Point, radius float64) []int {
	var out []int
	for _, c := range cells {
		for _, id := range c.ids {
			if space.Dist(state.At(id), q) <= radius {
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// flatTrial is one randomized index configuration shared by the parity
// tests below.
type flatTrial struct {
	state *space.State
	ids   []int
	prm   Params
}

func flatTrials(t *testing.T, rng *stats.RNG, trials int) []flatTrial {
	t.Helper()
	out := make([]flatTrial, 0, trials)
	for trial := 0; trial < trials; trial++ {
		n := 30 + rng.Intn(400)
		d := 1 + rng.Intn(3)
		if trial%5 == 4 {
			d = 1 + rng.Intn(space.MaxDim) // include high dimensions
		}
		st, err := space.NewState(n, d)
		if err != nil {
			t.Fatal(err)
		}
		st.Uniform(rng.Float64)
		// Snap some devices to cell boundaries and make some coincident.
		prm := ForSide([]float64{0.02, 0.06, 0.13, 0.31, 1}[trial%5])
		for j := 0; j < n/4; j++ {
			pt := make(space.Point, d)
			for i := range pt {
				pt[i] = math.Min(1, float64(rng.Intn(prm.Res+1))*prm.Side)
			}
			if err := st.Set(j, pt); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j+1 < n; j += 7 {
			if err := st.Set(j+1, st.At(j)); err != nil {
				t.Fatal(err)
			}
		}
		// Index a subset (sorted, like every production caller).
		ids := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.8 {
				ids = append(ids, j)
			}
		}
		out = append(out, flatTrial{state: st, ids: ids, prm: prm})
	}
	return out
}

// TestFlatMatchesMapCells: the flat index must hold exactly the oracle's
// cells — same keys, same coordinates, same id lists — in key-sorted
// slab order, and resolve every oracle cell through Find.
func TestFlatMatchesMapCells(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(20260729)
	for ti, tr := range flatTrials(t, rng, 40) {
		ix := New(tr.state, tr.ids, tr.prm)
		oracle := mapIndex(tr.state, tr.ids, tr.prm)
		label := fmt.Sprintf("trial %d (n=%d d=%d side=%v)", ti, tr.state.Len(), tr.state.Dim(), tr.prm.Side)
		if ix.Cells() != len(oracle) {
			t.Fatalf("%s: %d cells, want %d", label, ix.Cells(), len(oracle))
		}
		prevKey := ""
		for ci := 0; ci < ix.Cells(); ci++ {
			c := ix.CellAt(ci)
			key := keyOf(c.Coords)
			if ci > 0 && key <= prevKey {
				t.Fatalf("%s: cells %d and %d out of key order", label, ci-1, ci)
			}
			prevKey = key
			want, ok := oracle[key]
			if !ok {
				t.Fatalf("%s: flat cell %v not in oracle", label, c.Coords)
			}
			if !slices.Equal(c.Coords, want.coords) {
				t.Fatalf("%s: cell coords %v, want %v", label, c.Coords, want.coords)
			}
			if !slices.Equal(c.Ids, want.ids) {
				t.Fatalf("%s: cell %v ids %v, want %v", label, c.Coords, c.Ids, want.ids)
			}
			if got := ix.Find(c.Coords); got != ci {
				t.Fatalf("%s: Find(%v) = %d, want %d", label, c.Coords, got, ci)
			}
		}
		// Probes that must miss: perturbed coords, out-of-range coords,
		// wrong-dimension coords.
		for ci := 0; ci < ix.Cells(); ci += 3 {
			probe := slices.Clone(ix.CellAt(ci).Coords)
			probe[0] += 1
			if i := ix.Find(probe); i >= 0 {
				if keyOf(ix.CellAt(i).Coords) != keyOf(probe) {
					t.Fatalf("%s: Find(%v) resolved wrong cell %v", label, probe, ix.CellAt(i).Coords)
				}
				if _, ok := oracle[keyOf(probe)]; !ok {
					t.Fatalf("%s: Find(%v) hit a cell the oracle lacks", label, probe)
				}
			} else if _, ok := oracle[keyOf(probe)]; ok {
				t.Fatalf("%s: Find(%v) missed an occupied cell", label, probe)
			}
		}
		if ix.Find([]int{-1}) != -1 || ix.Find(nil) != -1 {
			t.Fatalf("%s: malformed probes must miss", label)
		}
	}
}

// TestFlatMatchesMapWithin: Within answers (sorted) must equal the
// oracle's exact-distance filter, across radii spanning the walk and
// scan paths.
func TestFlatMatchesMapWithin(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31337)
	for ti, tr := range flatTrials(t, rng, 25) {
		ix := New(tr.state, tr.ids, tr.prm)
		oracle := mapIndex(tr.state, tr.ids, tr.prm)
		for trial := 0; trial < 40; trial++ {
			q := tr.state.At(rng.Intn(tr.state.Len()))
			radius := tr.prm.Side * []float64{0.5, 1, 2}[trial%3]
			got := ix.Within(q, radius, nil)
			slices.Sort(got)
			want := mapWithin(tr.state, oracle, q, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d/%d: Within = %v, oracle = %v", ti, trial, got, want)
			}
		}
	}
}

// TestFlatMatchesMapPairWalk: the pair sets reported by the flat walk —
// identified by cell coordinates, across shard counts — must equal the
// pair sets over the oracle's cells.
func TestFlatMatchesMapPairWalk(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(777)
	for ti, tr := range flatTrials(t, rng, 15) {
		if NeighborCells(tr.state.Dim(), 2, 1<<20) > 1<<20 {
			continue // walks are guarded off at explosive fan-outs
		}
		ix := New(tr.state, tr.ids, tr.prm)
		oracle := mapIndex(tr.state, tr.ids, tr.prm)
		for _, reach := range []int{1, 2} {
			// Oracle pair set over the map cells, keyed by coordinate keys.
			want := map[[2]string]bool{}
			for ka, a := range oracle {
				want[[2]string{ka, ka}] = true
				for kb, b := range oracle {
					if ka < kb && Chebyshev(a.coords, b.coords) <= reach {
						want[[2]string{ka, kb}] = true
					}
				}
			}
			for _, nshards := range []int{1, 3, 5} {
				walk := ix.NewPairWalk(reach)
				cells := walk.Cells()
				got := map[[2]string]bool{}
				for s := 0; s < nshards; s++ {
					walk.Shard(s, nshards, func(a, b int) {
						ka, kb := keyOf(cells[a].Coords), keyOf(cells[b].Coords)
						if ka > kb {
							ka, kb = kb, ka
						}
						if got[[2]string{ka, kb}] {
							t.Fatalf("trial %d reach=%d nshards=%d: duplicate pair", ti, reach, nshards)
						}
						got[[2]string{ka, kb}] = true
					})
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d reach=%d nshards=%d: %d pairs, want %d", ti, reach, nshards, len(got), len(want))
				}
				for pair := range got {
					if !want[pair] {
						t.Fatalf("trial %d reach=%d nshards=%d: spurious pair", ti, reach, nshards)
					}
				}
			}
		}
	}
}

// TestFlatEmptyIndex: an empty id set builds a usable index with no
// cells (the directory indexes windows with no abnormal devices).
func TestFlatEmptyIndex(t *testing.T) {
	t.Parallel()

	st, err := space.NewState(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix := New(st, nil, ForRadius(0.03))
	if ix.Cells() != 0 {
		t.Fatalf("empty index has %d cells", ix.Cells())
	}
	if got := ix.Within(st.At(0), 0.1, nil); len(got) != 0 {
		t.Fatalf("empty index Within = %v", got)
	}
	if ix.Find([]int{0, 0}) != -1 {
		t.Fatal("empty index Find must miss")
	}
	walk := ix.NewPairWalk(2)
	walk.Shard(0, 1, func(a, b int) { t.Fatal("empty walk reported a pair") })
}
