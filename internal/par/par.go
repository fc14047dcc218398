// Package par is the module's one fan-out: every parallel pass — the
// detector walk, the grid build, the motion-graph build, the
// directory's per-view decisions and the experiment sweeps — starts its
// worker goroutines here, and nowhere else. The passes are parallel
// because the paper's error-detection functions and per-device
// decisions are independent local tests (Section III-A).
//
// Every helper returns only after each call it made has returned, so a
// caller owns no goroutine past the call. Workers are numbered, and a
// caller that keeps one result slot per worker and merges the slots in
// worker order gets the same output for every worker count and
// schedule.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a pool size: workers <= 0 selects GOMAXPROCS, and
// the result is clamped to [1, n].
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Ranges splits [0, n) into k contiguous ranges, range i being
// [i*n/k, (i+1)*n/k), runs f(i, lo, hi) on each concurrently and
// returns k. k is Workers(workers, n/grain), so every range holds at
// least grain items when n >= grain; a grain below 1 counts as 1. With
// one range — including n < 2*grain and n = 0 — f runs inline on the
// caller's goroutine and nothing is spawned.
func Ranges(n, workers, grain int, f func(i, lo, hi int)) int {
	k := Workers(workers, n/max(grain, 1))
	if k == 1 {
		f(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go func() {
			defer wg.Done()
			f(i, i*n/k, (i+1)*n/k)
		}()
	}
	f(0, 0, n/k)
	wg.Wait()
	return k
}

// Each calls f(i) exactly once for every i in [0, n), on a pool of
// Workers(workers, n) goroutines. Workers claim indices in ascending
// order from a shared counter, so items of uneven cost balance across
// the pool. n <= 0 calls nothing.
func Each(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	Do(Workers(workers, n), func(int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	})
}

// Do runs f(0), …, f(k-1) concurrently, one goroutine per index, and
// returns once all have returned. f(0) runs on the caller's goroutine,
// so k = 1 spawns nothing; k <= 0 calls nothing.
func Do(k int, f func(i int)) {
	if k > 0 {
		Ranges(k, k, 1, func(i, _, _ int) { f(i) })
	}
}
