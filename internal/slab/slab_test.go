package slab

import "testing"

func TestOfReusesFittingArrays(t *testing.T) {
	s := make([]uint64, 100)
	s[3] = 7
	if got := Of(s, 50); &got[0] != &s[0] || len(got) != 50 || got[3] != 7 {
		t.Fatalf("Of did not reuse a fitting array as is")
	}
	if got := Zeroed(s, 80); &got[0] != &s[0] || got[3] != 0 {
		t.Fatalf("Zeroed did not clear the reused array")
	}
	if got := Of(s, 101); len(got) != 101 || &got[0] == &s[0] {
		t.Fatalf("Of reused an array too small for the request")
	}
}

// TestShrinkRule: memory over the floor is kept for a need of at least
// a quarter of it and dropped below that; a map whose entries exceed
// the floor is dropped, a smaller one is emptied and kept.
func TestShrinkRule(t *testing.T) {
	const floorWords = shrinkFloor / 8
	big := make([]uint64, 8*floorWords)
	if got := Of(big, 2*floorWords); &got[0] != &big[0] {
		t.Fatalf("Of dropped an array of 4x the need")
	}
	if got := Of(big, 2*floorWords-1); &got[0] == &big[0] {
		t.Fatalf("Of kept an array of more than 4x the need, over the floor")
	}
	small := make([]uint64, floorWords)
	if got := Of(small, 1); &got[0] != &small[0] {
		t.Fatalf("Of dropped an array within the floor")
	}
	m := map[uint64]int{}
	for i := range floorWords / 2 {
		m[uint64(i)] = i
	}
	if got := Clear(m); got == nil || len(got) != 0 {
		t.Fatalf("Clear of %d 16-byte entries = %v entries (nil %v), want an empty kept map", floorWords/2, len(got), got == nil)
	}
	for i := range floorWords/2 + 1 {
		m[uint64(i)] = i
	}
	if Clear(m) != nil {
		t.Fatalf("Clear kept a map whose entries exceed the floor")
	}
}
