package grid

import (
	"slices"
	"testing"

	"anomalia/internal/space"
)

// FuzzPackedKeyOrder: for every geometry the codec can be built for,
// comparing two packed keys must order exactly like comparing the
// coordinate vectors lexicographically — the invariant the key-sorted
// cell slab, its binary searches and SortedCells all stand on.
func FuzzPackedKeyOrder(f *testing.F) {
	f.Add(10, 2, uint64(3), uint64(7), uint64(3), uint64(8))
	f.Add(1, 4, uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(1<<25, 2, uint64(1<<24), uint64(5), uint64(1<<24), uint64(4))
	f.Add(500, 3, uint64(499), uint64(0), uint64(1), uint64(499))
	f.Add(1<<40, 2, uint64(1)<<39, uint64(2), uint64(3), uint64(1)<<39)
	f.Fuzz(func(t *testing.T, res, dim int, a0, a1, b0, b1 uint64) {
		if res < 1 || res > 1<<50 {
			t.Skip()
		}
		if dim < 1 || dim > space.MaxDim {
			t.Skip()
		}
		kc := newKeyCodec(dim, res)
		// Spread the four fuzzed words over dim axes, clamped into
		// [0, res) like every coordinate the index packs.
		mk := func(w0, w1 uint64) []int {
			coords := make([]int, dim)
			for i := range coords {
				w := w0
				if i%2 == 1 {
					w = w1
				}
				coords[i] = int((w + uint64(i)) % uint64(res))
			}
			return coords
		}
		ca, cb := mk(a0, a1), mk(b0, b1)
		ka := kc.appendKey(nil, ca)
		kb := kc.appendKey(nil, cb)
		if len(ka) != kc.stride || len(kb) != kc.stride {
			t.Fatalf("packed width %d/%d, want stride %d", len(ka), len(kb), kc.stride)
		}
		got := slices.Compare(ka, kb)
		want := slices.Compare(ca, cb)
		if sign(got) != sign(want) {
			t.Fatalf("res=%d dim=%d: packed order %d, coord order %d (%v vs %v)", res, dim, got, want, ca, cb)
		}
		// The packed keys must also order like the AppendKey encoding.
		sa, sb := keyOf(ca), keyOf(cb)
		if sign(got) != sign(compareStrings(sa, sb)) {
			t.Fatalf("res=%d dim=%d: packed order disagrees with AppendKey order", res, dim)
		}
	})
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
