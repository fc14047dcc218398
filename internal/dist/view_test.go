package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/motion"
	"anomalia/internal/stats"
)

// bruteView is the 4r view of device j by definition: every abnormal
// device within uniform-norm distance 4r of j at both times.
func bruteView(pair *motion.Pair, abnormal []int, j int, r float64) []int {
	var view []int
	for _, i := range abnormal {
		if pair.Prev.Dist(i, j) <= 4*r && pair.Cur.Dist(i, j) <= 4*r {
			view = append(view, i)
		}
	}
	return view
}

// checkViews asserts that every abnormal device's View, and the bill
// DecideAll charges it, match the brute-force view.
func checkViews(t *testing.T, label string, pair *motion.Pair, abnormal []int, r float64) {
	t.Helper()
	dir, err := NewDirectory(pair, abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	decs, _, err := DecideAll(dir, core.Config{R: r, Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	for pos, j := range abnormal {
		want := bruteView(pair, abnormal, j, r)
		got, st, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: device %d: view %v, brute force %v", label, j, got, want)
		}
		if decs[pos].Stats != st {
			t.Fatalf("%s: device %d: DecideAll bills %+v, View %+v", label, j, decs[pos].Stats, st)
		}
	}
}

// TestViewMatchesBruteForceRandom: on seeded random windows in d = 1, 2
// and 3 every device's view equals the brute-force filter over the
// whole abnormal set. The radius is a power of two and positions sit on
// a grid of r/4 or r/8 about as often as anywhere, so exact 4r
// distances — the block tests' boundary — are frequent, and clusters of
// width up to 8r put candidates on every side of their cell's member
// box.
func TestViewMatchesBruteForceRandom(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2024)
	for _, d := range []int{1, 2, 3} {
		for _, r := range []float64{0, 1.0 / 64, 1.0 / 32} {
			for trial := 0; trial < 6; trial++ {
				n := 40 + rng.Intn(200)
				prev, cur := make([][]float64, n), make([][]float64, n)
				quant := []float64{0, r / 4, r / 8}[rng.Intn(3)]
				spread := float64(1+rng.Intn(8)) * r
				at := func(c float64) float64 {
					x := math.Min(1, math.Max(0, c+(rng.Float64()-0.5)*spread))
					if quant > 0 {
						x = math.Round(x/quant) * quant
					}
					return x
				}
				var centre, shift []float64
				for j := range prev {
					if j == 0 || rng.Float64() < 0.1 {
						centre, shift = make([]float64, d), make([]float64, d)
						for k := range centre {
							centre[k] = rng.Float64()
							shift[k] = (rng.Float64() - 0.5) * 8 * r
						}
					}
					prev[j], cur[j] = make([]float64, d), make([]float64, d)
					for k := 0; k < d; k++ {
						prev[j][k] = at(centre[k])
						cur[j][k] = at(centre[k] + shift[k])
					}
				}
				var abnormal []int
				for j := range prev {
					if rng.Float64() < 0.7 {
						abnormal = append(abnormal, j)
					}
				}
				label := fmt.Sprintf("d=%d r=%v trial %d", d, r, trial)
				checkViews(t, label, pairOf(t, prev, cur), abnormal, r)
			}
		}
	}
}

// TestViewBoundaries pins the block split on its floating-point
// boundary. Devices 0 and 1 form one cell whose member box is [lo, hi]
// at both times; device 2, the candidate, sits exactly 4r from a box
// corner, or one ulp beyond, at k-1 only or at k only, and well inside
// the view at the other time. Each fixture states the kind the
// candidate must get in the members' block — so accepted, remainder
// and rejected each flip on the boundary — and every view must still
// equal the brute-force one. Alone, the candidate's cell is placed
// whole; with a companion of another kind in its cell, the candidate is
// placed on its own.
func TestViewBoundaries(t *testing.T) {
	t.Parallel()

	const r = 1.0 / 64 // 4r and every position below are exact dyadics
	v := 4 * r
	up := func(x float64) float64 { return math.Nextafter(x, 2) }
	down := func(x float64) float64 { return math.Nextafter(x, -1) }
	type place struct {
		name string
		x    func(lo, hi float64) float64
		kind candKind
		high bool // beyond hi rather than below lo
	}
	places := []place{
		{"lo+4r", func(lo, hi float64) float64 { return lo + v }, accepted, true},
		{"lo+4r+ulp", func(lo, hi float64) float64 { return up(lo + v) }, remainder, true},
		{"hi+4r", func(lo, hi float64) float64 { return hi + v }, remainder, true},
		{"hi+4r+ulp", func(lo, hi float64) float64 { return up(hi + v) }, rejected, true},
		{"hi-4r", func(lo, hi float64) float64 { return hi - v }, accepted, false},
		{"hi-4r-ulp", func(lo, hi float64) float64 { return down(hi - v) }, remainder, false},
		{"lo-4r", func(lo, hi float64) float64 { return lo - v }, remainder, false},
		{"lo-4r-ulp", func(lo, hi float64) float64 { return down(lo - v) }, rejected, false},
	}
	// The member box at each time, offset from the cell grid (side 2r)
	// so that every candidate position shares a cell with a companion
	// spot of each kind.
	loT := [2]float64{0.5 + 1.0/256, 0.25 + 1.0/256}
	hiT := [2]float64{loT[0] + 1.0/128, loT[1] + 1.0/128}
	// inside is a position accepted against the member box at that time;
	// companion spots, per side of the box, are one accepted and one
	// rejected position in the candidates' k-1 cell.
	inside := [2]float64{0.55, 0.28}
	companion := func(time int, high bool, kind candKind) float64 {
		lo, hi := loT[time], hiT[time]
		switch {
		case high && kind == accepted:
			return hi + v + 1.0/64
		case high:
			return lo + v - 1.0/512
		case kind == accepted:
			return lo - v - 1.0/256
		default:
			return hi - v + 1.0/256
		}
	}
	for time, at := range []string{"k-1", "k"} {
		for _, pl := range places {
			for _, withCompanion := range []bool{false, true} {
				label := fmt.Sprintf("%s at %s", pl.name, at)
				if withCompanion {
					label += " with companion"
				}
				pos := [][2]float64{{loT[0], loT[1]}, {hiT[0], hiT[1]}, inside}
				pos[2][time] = pl.x(loT[time], hiT[time])
				if withCompanion {
					c := inside
					c[time] = companion(time, pl.high, pl.kind)
					pos = append(pos, c)
				}
				prev, cur := make([][]float64, len(pos)), make([][]float64, len(pos))
				abnormal := make([]int, len(pos))
				for j, p := range pos {
					prev[j], cur[j], abnormal[j] = []float64{p[0]}, []float64{p[1]}, j
				}
				pair := pairOf(t, prev, cur)
				checkViews(t, label, pair, abnormal, r)

				dir, err := NewDirectory(pair, abnormal, r)
				if err != nil {
					t.Fatal(err)
				}
				if dir.cellOf[0] != dir.cellOf[1] || dir.cellOf[2] == dir.cellOf[0] ||
					(withCompanion && dir.cellOf[3] != dir.cellOf[2]) {
					t.Fatalf("%s: fixture cells %v: members must share a cell, the candidate and companion another", label, dir.cellOf)
				}
				var b block
				dir.buildBlock(int(dir.cellOf[0]), &b)
				p, in := slices.BinarySearch(b.cands, 2)
				got := rejected
				if in {
					got = accepted
					if slices.Contains(b.rest, int32(p)) {
						got = remainder
					}
				}
				if got != pl.kind {
					t.Errorf("%s: candidate placed %d, want %d", label, got, pl.kind)
				}
			}
		}
	}
}

// TestViewNaNCoordinate: a NaN coordinate at k, which the space package
// keeps out of states but a caller holding a State's row could still
// write, never rejects on its axis — as in space.Dist — so the split
// keeps every view equal to the brute-force one, whether the NaN sits
// on a member or on a candidate. Devices 0, 1 and 3 share a cell;
// device 2, in the next one, is far from them on axis 1 at k, so only a
// NaN there keeps it in a view. (At k-1 a NaN would also unseat the
// grid index, which has no cell for it.)
func TestViewNaNCoordinate(t *testing.T) {
	t.Parallel()

	const r = 1.0 / 64
	for _, j := range []int{1, 2} {
		prev := [][]float64{{0.5, 0.5}, {0.51, 0.5}, {0.55, 0.5}, {0.52, 0.51}}
		cur := [][]float64{{0.2, 0.2}, {0.21, 0.2}, {0.22, 0.4}, {0.23, 0.22}}
		pair := pairOf(t, prev, cur)
		pair.Cur.At(j)[1] = math.NaN()
		checkViews(t, fmt.Sprintf("NaN on device %d", j), pair, []int{0, 1, 2, 3}, r)
	}
}

// TestMergeRuns: merging ascending runs, in any count and with empty
// runs among them, yields the sorted union in the buffer mergeRounds
// predicts.
func TestMergeRuns(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		runs := 1 + rng.Intn(12)
		perm := rng.Perm(rng.Intn(60))
		var src []int
		var ends []int32
		for k := 0; k < runs; k++ {
			lo := k * len(perm) / runs
			hi := (k + 1) * len(perm) / runs
			run := slices.Clone(perm[lo:hi])
			slices.Sort(run)
			src = append(src, run...)
			ends = append(ends, int32(len(src)))
		}
		dst := make([]int, len(src))
		orig := slices.Clone(src)
		want := slices.Sorted(slices.Values(orig))
		mergeRuns(src, dst, ends)
		got := src
		if runs > 1 && mergeRounds(runs)%2 == 1 {
			got = dst
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d runs of %v merged to %v, want %v", runs, orig, got, want)
		}
	}
}
