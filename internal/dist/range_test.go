package dist

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/stats"
)

// groupCut returns a position that cuts the window's sorted abnormal set
// through the middle of a view group: a device before it and a device
// at or after it share one 4r view, hence one characterizer.
func groupCut(t *testing.T, dir *Directory) int {
	t.Helper()
	first := make(map[string]int)
	for pos, j := range dir.abnormal {
		view, _, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(view)
		if p, ok := first[key]; ok {
			return p + 1
		}
		first[key] = pos
	}
	t.Fatal("fixture: no view group has two members")
	return 0
}

// TestDecideRangeParity: contiguous ranges of one window — empty ones,
// and cuts through the middle of a view group, included — concatenate
// to exactly DecideAll's decisions, Results and Stats both, and their
// totals sum to its total. Inverted, negative and past-the-end ranges
// error.
func TestDecideRangeParity(t *testing.T) {
	t.Parallel()

	coreCfg := core.Config{R: 0.03, Tau: 3, Exact: true}
	for i, mode := range []string{"uniform", "clustered", "coincident"} {
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(int64(2718 + i))
			s := newWindowSeq(t, rng, 250, coreCfg.R, mode)
			var dir *Directory
			for step := 0; step < 3; step++ {
				_, dir = s.advance(t, 0.3, 0.05)
			}
			want, wantTotal, err := DecideAll(dir, coreCfg)
			if err != nil {
				t.Fatal(err)
			}
			m := len(want)
			cut := groupCut(t, dir)
			cutSets := [][]int{nil, {cut}, {0, cut, cut}, {m / 3, cut, m}}
			for k := 0; k < 8; k++ {
				cuts := make([]int, 1+rng.Intn(3))
				for c := range cuts {
					cuts[c] = rng.Intn(m + 1)
				}
				cutSets = append(cutSets, cuts)
			}
			// Every range is decided into the previous range's slice, as a
			// caller recycling its decisions does.
			var buf []Decision
			for _, cuts := range cutSets {
				slices.Sort(cuts)
				var got []Decision
				var total Stats
				from := 0
				for _, to := range append(slices.Clone(cuts), m) {
					decs, st, err := DecideRange(buf, dir, coreCfg, from, to)
					if err != nil {
						t.Fatalf("cuts %v: range [%d, %d): %v", cuts, from, to, err)
					}
					got = append(got, decs...)
					buf = decs
					total.Add(st)
					from = to
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cuts %v: concatenated ranges differ from DecideAll", cuts)
				}
				if total != wantTotal {
					t.Fatalf("cuts %v: total %+v, want %+v", cuts, total, wantTotal)
				}
			}
			for _, bad := range [][2]int{{-1, 1}, {2, 1}, {0, m + 1}, {m + 1, m + 1}} {
				if _, _, err := DecideRange(nil, dir, coreCfg, bad[0], bad[1]); err == nil {
					t.Errorf("range [%d, %d) over %d devices decided", bad[0], bad[1], m)
				}
			}
		})
	}
}

// TestDecideRangeLowestError: when several view groups fail, the batch
// reports the lowest failing position's error on every run, whatever
// the worker count or schedule. The fixture holds two copies of the
// paper's Figure 5 ring — every member decidable only by Theorem 7's
// exact search, which a one-node budget cannot finish — as two view
// groups, and an isolated device opens the first group, so the lowest
// failing device belongs to the group opened second.
func TestDecideRangeLowestError(t *testing.T) {
	// Not parallel: the test sets GOMAXPROCS.
	const r = 0.025
	// Figure 5 scaled by r/0.1, on one axis: four co-moving pairs,
	// (prev, cur) per pair, whose dense motions overlap in a ring.
	ring := [][2]float64{{0.075, 0.075}, {0.1225, 0.1}, {0.17, 0.075}, {0.1225, 0.04}}
	var prev, cur [][]float64
	add := func(p, c float64) {
		prev = append(prev, []float64{p})
		cur = append(cur, []float64{c})
	}
	member := func(base float64, k int) {
		off := []float64{-0.0005, 0.0005}[k%2]
		add(base+ring[k/2][0]+off, base+ring[k/2][1]+off)
	}
	add(0.1225, 0.13) // device 0: within 4r of the first ring, adjacent to none
	member(0.5, 0)    // device 1: second ring
	for k := 0; k < 8; k++ {
		member(0, k) // devices 2-9: first ring
	}
	for k := 1; k < 8; k++ {
		member(0.5, k) // devices 10-16: second ring
	}
	abnormal := make([]int, len(prev))
	for j := range abnormal {
		abnormal[j] = j
	}
	dir, err := NewDirectory(pairOf(t, prev, cur), abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{R: r, Tau: 3, Exact: true, Budget: 1}

	// Device by device, the lowest failing device's error is the
	// reference.
	var failing []int
	failingViews := make(map[string]bool)
	var wantErr error
	for _, j := range abnormal {
		_, _, err := Decide(dir, j, cfg)
		if err == nil {
			continue
		}
		if !errors.Is(err, core.ErrBudget) {
			t.Fatalf("device %d: %v, want ErrBudget", j, err)
		}
		if wantErr == nil {
			wantErr = fmt.Errorf("device %d: %w", j, err)
		}
		failing = append(failing, j)
		view, _, err := dir.View(j)
		if err != nil {
			t.Fatal(err)
		}
		failingViews[fmt.Sprint(view)] = true
	}
	if len(failing) == 0 || failing[0] != 1 || len(failingViews) < 2 {
		t.Fatalf("fixture: failing devices %v in %d view groups, want device 1 first and >= 2 groups",
			failing, len(failingViews))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			_, _, err := DecideAll(dir, cfg)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("GOMAXPROCS=%d rep %d: err = %v, want %v", procs, rep, err, wantErr)
			}
		}
	}
}
