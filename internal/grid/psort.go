package grid

import (
	"slices"

	"anomalia/internal/par"
)

// parallelSortThreshold is the input size below which the composite-key
// sort runs single-threaded: shard + merge overhead only pays for itself
// on bulk builds, and per-window builds at paper scale should spawn
// nothing (like the key passes, see minPerWorker).
const parallelSortThreshold = 1 << 15

// parallelSortUint64 sorts a ascending using up to GOMAXPROCS workers:
// per-shard sorts followed by rounds of pairwise merges. The output is
// the ascending ordering of the values — unique whatever the shard
// count — so index builds are deterministic across machines and
// GOMAXPROCS settings.
func parallelSortUint64(a []uint64) {
	workers := 0
	if len(a) < parallelSortThreshold {
		workers = 1
	}
	parallelSortUint64Workers(a, workers)
}

// parallelSortUint64Workers is the worker-count-parameterized core,
// split out so tests can pin output equality across worker counts.
func parallelSortUint64Workers(a []uint64, workers int) {
	n := len(a)
	// Shard and sort: shard i is a[i*n/k : (i+1)*n/k].
	k := par.Ranges(n, workers, 1, func(_, lo, hi int) { slices.Sort(a[lo:hi]) })
	if k == 1 {
		return
	}
	bounds := make([]int, k+1)
	for i := range bounds {
		bounds[i] = i * n / k
	}

	// Merge rounds: adjacent run pairs merge in parallel, ping-ponging
	// between a and one scratch buffer, until a single run remains. An
	// odd run out is carried into the next round.
	buf := make([]uint64, n)
	src, dst := a, buf
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		par.Do((runs+1)/2, func(p int) {
			lo, mid := bounds[2*p], bounds[2*p+1]
			if 2*p+2 >= len(bounds) {
				copy(dst[lo:mid], src[lo:mid])
				return
			}
			hi := bounds[2*p+2]
			mergeUint64(dst[lo:hi], src[lo:mid], src[mid:hi])
		})
		next := make([]int, 0, runs/2+2)
		for i := 0; i < len(bounds)-1; i += 2 {
			next = append(next, bounds[i])
		}
		bounds = append(next, n)
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// mergeUint64 merges the sorted runs x and y into dst, which must have
// length len(x)+len(y).
func mergeUint64(dst, x, y []uint64) {
	for len(x) > 0 && len(y) > 0 {
		if y[0] < x[0] {
			dst[0] = y[0]
			y = y[1:]
		} else {
			dst[0] = x[0]
			x = x[1:]
		}
		dst = dst[1:]
	}
	copy(dst, x)
	copy(dst[len(x):], y)
}
