package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// rangeCall records one f(i, lo, hi) call of Ranges.
type rangeCall struct{ i, lo, hi int }

// runRanges calls Ranges and returns k plus the calls indexed by i.
func runRanges(t *testing.T, n, workers, grain int) (int, []rangeCall) {
	t.Helper()
	var mu sync.Mutex
	var calls []rangeCall
	k := Ranges(n, workers, grain, func(i, lo, hi int) {
		mu.Lock()
		calls = append(calls, rangeCall{i, lo, hi})
		mu.Unlock()
	})
	if len(calls) != k {
		t.Fatalf("n=%d workers=%d grain=%d: %d calls, Ranges returned %d", n, workers, grain, len(calls), k)
	}
	byIndex := make([]rangeCall, k)
	seen := make([]bool, k)
	for _, c := range calls {
		if c.i < 0 || c.i >= k || seen[c.i] {
			t.Fatalf("n=%d workers=%d grain=%d: range index %d out of [0,%d) or repeated", n, workers, grain, c.i, k)
		}
		seen[c.i] = true
		byIndex[c.i] = c
	}
	return k, byIndex
}

// TestRangesCoverInOrder: the ranges tile [0, n) exactly once, range i
// ends where range i+1 starts, and each holds at least grain items.
func TestRangesCoverInOrder(t *testing.T) {
	t.Parallel()

	for _, n := range []int{1, 2, 7, 100, 1000, 4097} {
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			for _, grain := range []int{0, 1, 3, 64, 1000} {
				k, calls := runRanges(t, n, workers, grain)
				if want := max(1, min(workers, n/max(grain, 1))); k != want {
					t.Fatalf("n=%d workers=%d grain=%d: k = %d, want %d", n, workers, grain, k, want)
				}
				next := 0
				for _, c := range calls {
					if c.lo != next || c.hi < c.lo {
						t.Fatalf("n=%d workers=%d grain=%d: range %d is [%d,%d), want it to start at %d",
							n, workers, grain, c.i, c.lo, c.hi, next)
					}
					if k > 1 && c.hi-c.lo < grain {
						t.Fatalf("n=%d workers=%d grain=%d: range %d holds %d < grain items",
							n, workers, grain, c.i, c.hi-c.lo)
					}
					next = c.hi
				}
				if next != n {
					t.Fatalf("n=%d workers=%d grain=%d: ranges end at %d", n, workers, grain, next)
				}
			}
		}
	}
}

// TestRangesClamp pins the degenerate shapes: n below grain and n = 0
// give one range, workers <= 0 selects GOMAXPROCS, and workers > n
// gives at most n ranges.
func TestRangesClamp(t *testing.T) {
	t.Parallel()

	cases := []struct {
		name                 string
		n, workers, grain, k int
	}{
		{"n<grain", 100, 8, 1000, 1},
		{"n=0", 0, 8, 1, 1},
		{"n=0 grain=0", 0, 0, 0, 1},
		{"workers>n", 3, 100, 1, 3},
		{"workers<0", 1 << 20, -1, 1, runtime.GOMAXPROCS(0)},
		{"workers=0", 1 << 20, 0, 1, runtime.GOMAXPROCS(0)},
		{"grain caps k", 10, 8, 4, 2},
	}
	for _, tc := range cases {
		k, calls := runRanges(t, tc.n, tc.workers, tc.grain)
		if k != tc.k {
			t.Errorf("%s: k = %d, want %d", tc.name, k, tc.k)
		}
		if k == 1 && (calls[0].lo != 0 || calls[0].hi != tc.n) {
			t.Errorf("%s: single range is [%d,%d), want [0,%d)", tc.name, calls[0].lo, calls[0].hi, tc.n)
		}
	}
}

// TestEachCallsEveryIndexOnce: every index in [0, n) is called exactly
// once whatever the pool size, and n = 0 calls nothing. The worker
// number lies in [0, Workers(workers, n)), and no two calls with one
// worker number overlap, so per-worker scratch is never shared.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	t.Parallel()

	for _, n := range []int{0, 1, 2, 5, 100, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 2000} {
			counts := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, Workers(workers, max(n, 1)))
			var calls, bad atomic.Int32
			Each(n, workers, func(w, i int) {
				if w < 0 || w >= len(busy) || busy[w].Swap(true) {
					bad.Add(1)
					return
				}
				calls.Add(1)
				counts[i].Add(1)
				busy[w].Store(false)
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d workers=%d: %d calls with a worker number out of range or in use", n, workers, bad.Load())
			}
			if int(calls.Load()) != n {
				t.Fatalf("n=%d workers=%d: %d calls", n, workers, calls.Load())
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
		}
	}
}
