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
