package grid

import (
	"math"
	"sort"
	"sync"
	"testing"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

func TestForRadius(t *testing.T) {
	t.Parallel()

	cases := []struct {
		r    float64
		side float64
		res  int
	}{
		{0, 1, 1},
		{0.03, 0.06, 17},
		{0.01, 0.02, 50},
		{0.25, 0.5, 2},
		{0.2499, 0.4998, 3},
	}
	for _, c := range cases {
		p := ForRadius(c.r)
		if p.Side != c.side {
			t.Errorf("ForRadius(%v).Side = %v, want %v", c.r, p.Side, c.side)
		}
		if p.Res != c.res {
			t.Errorf("ForRadius(%v).Res = %d, want %d", c.r, p.Res, c.res)
		}
	}
}

func TestCoordsClamped(t *testing.T) {
	t.Parallel()

	p := ForRadius(0.05) // side 0.1, res 10
	cases := []struct {
		x    float64
		want int
	}{
		{-0.5, 0},
		{0, 0},
		{0.05, 0},
		{0.1, 1},
		{0.95, 9},
		{1.0, 9},  // clamped into the last cell
		{17.0, 9}, // clamped
	}
	for _, c := range cases {
		got := p.Coords(space.Point{c.x}, nil)
		if got[0] != c.want {
			t.Errorf("Coords(%v) = %d, want %d", c.x, got[0], c.want)
		}
	}
	// Coords appends to dst.
	dst := p.Coords(space.Point{0.25, 0.55}, []int{7})
	if len(dst) != 3 || dst[0] != 7 || dst[1] != 2 || dst[2] != 5 {
		t.Errorf("Coords append = %v, want [7 2 5]", dst)
	}
}

// keyOf is the AppendKey encoding of coords as a string, comparable
// and usable as a map key.
func keyOf(coords []int) string { return string(AppendKey(nil, coords)) }

// TestKeyCollisionFreeAndOrdered: distinct coordinate vectors of the
// same dimension get distinct keys, and key order matches lexicographic
// coordinate order (the property the fixed-width big-endian packing is
// chosen for).
func TestKeyCollisionFreeAndOrdered(t *testing.T) {
	t.Parallel()

	vecs := [][]int{
		{0, 0}, {0, 1}, {0, 255}, {0, 256}, {1, 0}, {1, 2}, {2, 1},
		{255, 255}, {256, 0}, {1 << 40, 3},
	}
	for i := range vecs {
		for j := range vecs {
			ki, kj := keyOf(vecs[i]), keyOf(vecs[j])
			if (i == j) != (ki == kj) {
				t.Errorf("key of %v vs key of %v: collision mismatch", vecs[i], vecs[j])
			}
			if i < j && !(ki < kj) {
				t.Errorf("key of %v !< key of %v: ordering broken", vecs[i], vecs[j])
			}
		}
	}
}

func TestChebyshev(t *testing.T) {
	t.Parallel()

	if d := Chebyshev([]int{1, 5, 3}, []int{4, 5, 2}); d != 3 {
		t.Errorf("Chebyshev = %d, want 3", d)
	}
	if d := Chebyshev([]int{2, 2}, []int{2, 2}); d != 0 {
		t.Errorf("Chebyshev same = %d, want 0", d)
	}
}

// TestIndexCellsSorted: indexing sorted ids keeps every cell's id list
// sorted, and every indexed id lands in exactly one cell.
func TestIndexCellsSorted(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(11)
	st, err := space.NewState(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Uniform(rng.Float64)
	ids := make([]int, 0, 250)
	for j := 0; j < 500; j += 2 {
		ids = append(ids, j)
	}
	ix := New(st, ids, ForRadius(0.03))

	seen := make(map[int]bool)
	for ci, c := range ix.SortedCells() {
		if got := ix.Find(c.Coords); got != ci {
			t.Errorf("Find(%v) = %d, want the cell itself at %d", c.Coords, got, ci)
		}
		for i, id := range c.Ids {
			if seen[id] {
				t.Errorf("device %d indexed twice", id)
			}
			seen[id] = true
			if i > 0 && c.Ids[i-1] >= id {
				t.Errorf("cell %v ids not sorted: %v", c.Coords, c.Ids)
			}
		}
	}
	if len(seen) != len(ids) {
		t.Errorf("indexed %d devices, want %d", len(seen), len(ids))
	}
}

// TestWithinHighDimension: at dimensions where the neighbour fan-out
// (2*reach+1)^d dwarfs any realistic index, Within must fall back to
// scanning the occupied cells — returning in bounded time with the ids
// sorted — instead of walking an exponential offset odometer.
func TestWithinHighDimension(t *testing.T) {
	t.Parallel()

	const n, d = 50, space.MaxDim
	rng := stats.NewRNG(31)
	st, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	st.Uniform(rng.Float64)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	prm := ForRadius(0.03)
	ix := New(st, ids, prm)
	for j := 0; j < n; j++ {
		got := ix.Within(st.At(j), 2*prm.Side, nil)
		var want []int
		for i := 0; i < n; i++ {
			if space.Dist(st.At(i), st.At(j)) <= 2*prm.Side {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("device %d: Within %v != scan %v", j, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("device %d: Within %v != scan %v", j, got, want)
			}
		}
	}
}

// TestWithinMatchesScan: the neighbour-cell walk must return exactly the
// ids a full scan finds, for radii up to reach*Side, including query
// points on cell boundaries and at the domain edges.
func TestWithinMatchesScan(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(23)
	for _, r := range []float64{0.01, 0.03, 0.12, 0.2499} {
		prm := ForRadius(r)
		st, err := space.NewState(400, 2)
		if err != nil {
			t.Fatal(err)
		}
		st.Uniform(rng.Float64)
		// Snap a slice of devices onto exact cell-boundary multiples.
		for j := 0; j < 80; j++ {
			k := float64(rng.Intn(prm.Res + 1))
			l := float64(rng.Intn(prm.Res + 1))
			pt := space.Point{math.Min(1, k*prm.Side), math.Min(1, l*prm.Side)}
			if err := st.Set(j, pt); err != nil {
				t.Fatal(err)
			}
		}
		ids := make([]int, 400)
		for i := range ids {
			ids[i] = i
		}
		ix := New(st, ids, prm)

		for trial := 0; trial < 200; trial++ {
			j := rng.Intn(400)
			q := st.At(j)
			for _, radius := range []float64{prm.Side, 2 * prm.Side} {
				got := ix.Within(q, radius, nil)
				sort.Ints(got) // Within groups by cell, not by id
				var want []int
				for i := 0; i < st.Len(); i++ {
					if space.Dist(st.At(i), q) <= radius {
						want = append(want, i)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("r=%v radius=%v device %d: Within %v != scan %v", r, radius, j, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("r=%v radius=%v device %d: Within %v != scan %v", r, radius, j, got, want)
					}
				}
			}
		}
	}
}

// TestPositiveOffsets: exactly one of {o, -o} for every non-zero offset
// in [-reach, reach]^dim, so a walk over them visits each unordered cell
// pair once; the table is built once per (dim, reach), so asking again
// allocates nothing.
func TestPositiveOffsets(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		for reach := 1; reach <= 2; reach++ {
			offs := PositiveOffsets(dim, reach)
			total := 1
			for i := 0; i < dim; i++ {
				total *= 2*reach + 1
			}
			if want := (total - 1) / 2; len(offs) != want {
				t.Fatalf("dim=%d reach=%d: %d offsets, want %d", dim, reach, len(offs), want)
			}
			seen := map[string]bool{}
			for _, o := range offs {
				if o[firstNonZero(o)] <= 0 {
					t.Fatalf("offset %v is not lexicographically positive", o)
				}
				neg := make([]int, dim)
				for i, x := range o {
					neg[i] = -x
				}
				if seen[keyOf(o)] || seen[keyOf(neg)] {
					t.Fatalf("offset %v or its negation enumerated twice", o)
				}
				seen[keyOf(o)] = true
			}
			if got := testing.AllocsPerRun(10, func() { PositiveOffsets(dim, reach) }); got != 0 {
				t.Fatalf("dim=%d reach=%d: PositiveOffsets allocates %.0f times on a built table", dim, reach, got)
			}
		}
	}
}

func firstNonZero(o []int) int {
	for i, x := range o {
		if x != 0 {
			return i
		}
	}
	return len(o) - 1
}

// TestPairWalkCoversAllPairs: the union over any shard count of the
// walk's pair callbacks must be exactly the unordered pairs of occupied
// cells within reach (plus each cell with itself), each exactly once.
func TestPairWalkCoversAllPairs(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(200)
		d := 1 + rng.Intn(3)
		st, err := space.NewState(n, d)
		if err != nil {
			t.Fatal(err)
		}
		st.Uniform(rng.Float64)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		prm := ForSide(0.1 + 0.2*rng.Float64())
		ix := New(st, ids, prm)
		reach := 1 + rng.Intn(2)

		for _, nshards := range []int{1, 2, 3, 7} {
			walk := ix.NewPairWalk(reach)
			// Oracle: all unordered pairs of occupied cells within
			// reach, in this walk's fixed (but unspecified) cell order.
			cells := walk.Cells()
			want := map[[2]int]int{}
			for i := range cells {
				want[[2]int{i, i}]++
				for j := i + 1; j < len(cells); j++ {
					if Chebyshev(cells[i].Coords, cells[j].Coords) <= reach {
						want[[2]int{i, j}]++
					}
				}
			}
			got := map[[2]int]int{}
			for s := 0; s < nshards; s++ {
				walk.Shard(s, nshards, func(a, b int) {
					if a > b {
						a, b = b, a
					}
					got[[2]int{a, b}]++
				})
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d nshards=%d: %d pairs, want %d", trial, nshards, len(got), len(want))
			}
			for pair, count := range got {
				if count != 1 {
					t.Fatalf("trial %d nshards=%d: pair %v reported %d times", trial, nshards, pair, count)
				}
				if want[pair] != 1 {
					t.Fatalf("trial %d nshards=%d: spurious pair %v", trial, nshards, pair)
				}
			}
		}
	}
}

// TestSortedCellsDeterministic: SortedCells must return the occupied
// cells in key order — the shared deterministic order walks rely on.
func TestSortedCellsDeterministic(t *testing.T) {
	rng := stats.NewRNG(7)
	st, err := space.NewState(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Uniform(rng.Float64)
	ids := make([]int, 300)
	for i := range ids {
		ids[i] = i
	}
	ix := New(st, ids, ForSide(0.13))
	cells := ix.SortedCells()
	if len(cells) != ix.Cells() {
		t.Fatalf("SortedCells returned %d cells, index has %d", len(cells), ix.Cells())
	}
	for i := 1; i < len(cells); i++ {
		if keyOf(cells[i-1].Coords) >= keyOf(cells[i].Coords) {
			t.Fatalf("cells %d and %d out of key order", i-1, i)
		}
	}
}

// TestForEachNeighborWarmAllocs: the offset fan is built once per
// (dim, reach) and shared, so a warm neighbour walk allocates nothing,
// and switching reach picks a fan that visits the right cells.
func TestForEachNeighborWarmAllocs(t *testing.T) {
	rng := stats.NewRNG(5)
	st, err := space.NewState(400, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Uniform(rng.Float64)
	ids := make([]int, 400)
	for j := range ids {
		ids[j] = j
	}
	ix := New(st, ids, ForRadius(0.05))
	center := ix.CellAt(int(ix.CellIndexes()[0])).Coords
	visited := 0
	count := func(int, *Cell) { visited++ }
	for _, reach := range []int{2, 1, 2} {
		visited = 0
		ix.ForEachNeighbor(center, reach, count)
		want := 0
		for _, c := range ix.SortedCells() {
			if Chebyshev(c.Coords, center) <= reach {
				want++
			}
		}
		if visited != want {
			t.Fatalf("reach %d: visited %d cells, want %d", reach, visited, want)
		}
		if got := testing.AllocsPerRun(100, func() { ix.ForEachNeighbor(center, reach, count) }); got != 0 {
			t.Fatalf("reach %d: warm ForEachNeighbor allocates %.0f times, want 0", reach, got)
		}
	}
}

// TestForEachNeighborConcurrent: goroutines walking one index at
// different reaches share the fan table; each walk still visits exactly
// the cells within its own reach.
func TestForEachNeighborConcurrent(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(6)
	st, err := space.NewState(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Uniform(rng.Float64)
	ids := make([]int, 300)
	for j := range ids {
		ids[j] = j
	}
	ix := New(st, ids, ForRadius(0.05))
	center := ix.CellAt(int(ix.CellIndexes()[0])).Coords
	want := map[int]int{}
	for _, reach := range []int{1, 2, 3} {
		for _, c := range ix.SortedCells() {
			if Chebyshev(c.Coords, center) <= reach {
				want[reach]++
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(reach int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				visited := 0
				ix.ForEachNeighbor(center, reach, func(int, *Cell) { visited++ })
				if visited != want[reach] {
					t.Errorf("reach %d: visited %d cells, want %d", reach, visited, want[reach])
					return
				}
			}
		}(1 + g%3)
	}
	wg.Wait()
}
