// Package slab sizes the working memory of a window, which has the same
// shape from one window to the next. That memory has one owner, which
// refills it in place window after window; a slice read from it is
// valid until the owner's next refill. The shrink rule, Keep, is written
// here once: memory more than 4x the current need and larger than
// shrinkFloor bytes is dropped, so one huge window does not stay
// resident, while a storm's spread of window sizes keeps reusing it. Of,
// Zeroed and Grow apply it to slices and Clear to maps; an owner of
// other memory asks Keep.
package slab

import "unsafe"

// shrinkFloor is the size in bytes up to which memory is always kept.
const shrinkFloor = 256 << 10

// Keep reports whether the rule keeps have bytes for a need of need.
func Keep(have, need uintptr) bool { return have <= 4*need || have <= shrinkFloor }

// fits reports whether s's array serves n elements under the rule.
func fits[T any](s []T, n int) bool {
	var zero T
	size := unsafe.Sizeof(zero)
	return cap(s) >= n && Keep(uintptr(cap(s))*size, uintptr(n)*size)
}

// Of returns a slice of length n over s's array when it fits n, else
// over a new zeroed array. A reused element keeps whatever s held, so a
// caller that reads before it writes must clear it or call Zeroed.
func Of[T any](s []T, n int) []T {
	if fits(s, n) {
		return s[:n]
	}
	return make([]T, n)
}

// Zeroed is Of with every element zero.
func Zeroed[T any](s []T, n int) []T {
	if fits(s, n) {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// Grow is Of for elements that own memory of their own: the first
// min(n, cap(s)) elements keep theirs on a new array too.
func Grow[T any](s []T, n int) []T {
	if fits(s, n) {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:min(n, cap(s))])
	return out
}

// Clear empties m for the next window, or returns nil when its entries
// alone exceed the floor: a map keeps its buckets through clear, and
// between windows its need is none.
func Clear[M ~map[K]V, K comparable, V any](m M) M {
	var k K
	var v V
	if !Keep(uintptr(len(m))*(unsafe.Sizeof(k)+unsafe.Sizeof(v)), 0) {
		return nil
	}
	clear(m)
	return m
}
