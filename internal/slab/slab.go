// Package slab sizes the recycled working memory of a window. The
// paper decides every abnormal window from scratch, so nothing a window
// is decided in carries to the next; but its working memory — the
// motion graph's slabs, the grid index, the characterizer's tables —
// has the same shape from one window to the next. The packages that
// build that memory keep it in sync.Pools, which hand it back to the
// heap at GC, and size each reused slab with Of or Zeroed.
package slab

// Of returns a slice of length n over s's array when its capacity holds
// n, else over a new zeroed array. A reused element keeps whatever s
// held, so a caller that reads before it writes must clear it or call
// Zeroed.
func Of[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Zeroed is Of with every element zero.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}
