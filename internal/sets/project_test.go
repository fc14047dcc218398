package sets

import "testing"

// TestProjectInto: members map through rank into the destination
// universe, without clearing dst, and out-of-universe ranks are dropped
// like any other Add.
func TestProjectInto(t *testing.T) {
	t.Parallel()

	b := BitsOf(10, 1, 4, 7, 9)
	rank := []int32{9, 0, 8, 1, 2, 7, 3, 5, 4, 6}
	dst := BitsOf(8, 6) // pre-existing member must survive
	b.ProjectInto(dst, rank)
	want := BitsOf(8, 6, 0, 2, 5) // rank[1]=0, rank[4]=2, rank[7]=5; rank[9]=6 joins existing
	if !dst.Equal(want) {
		t.Fatalf("ProjectInto = %v, want %v", dst, want)
	}

	tiny := NewBits(3)
	b.ProjectInto(tiny, rank) // ranks 5, 6 fall outside [0,3)
	if got := tiny.String(); got != "{0 2}" {
		t.Fatalf("clamped projection = %s, want {0 2}", got)
	}

	empty := NewBits(10)
	out := NewBits(4)
	empty.ProjectInto(out, rank)
	if !out.Empty() {
		t.Fatalf("empty projection added members: %v", out)
	}
}

// TestCopyRange: the word-shift range copy equals ProjectInto through
// the contiguous rank i ↦ i-lo, overwrites dst, and drops members
// outside [lo, lo+n) — at word-aligned and unaligned offsets alike.
func TestCopyRange(t *testing.T) {
	t.Parallel()

	src := BitsOf(300, 0, 3, 63, 64, 65, 127, 128, 190, 255, 256, 299)
	for _, lo := range []int{0, 1, 3, 63, 64, 65, 127, 200, 299, 300, 400} {
		for _, n := range []int{0, 1, 5, 64, 65, 128, 170, 300} {
			dst := BitsOf(n, 0, n-1) // stale members must not survive
			dst.CopyRange(src, lo)
			want := NewBits(n)
			src.ProjectInto(want, contiguousRank(src.Universe(), lo))
			if !dst.Equal(want) || dst.Len() != want.Len() {
				t.Fatalf("lo=%d n=%d: CopyRange = %v, want %v", lo, n, dst, want)
			}
		}
	}
}

// contiguousRank maps i to i-lo over [0, universe).
func contiguousRank(universe, lo int) []int32 {
	rank := make([]int32, universe)
	for i := range rank {
		rank[i] = int32(i - lo)
	}
	return rank
}

// TestOrWordsAndAppendNew covers the two word-level fill primitives:
// OrWords lands a mask at its word offset without touching other words,
// and AppendNew reports exactly b \ seen in order while folding it into
// seen.
func TestOrWordsAndAppendNew(t *testing.T) {
	t.Parallel()

	b := BitsOf(200, 5, 150)
	b.OrWords(1, []uint64{1<<2 | 1<<63, 1})
	if got := b.String(); got != "{5 66 127 128 150}" {
		t.Fatalf("OrWords = %s", got)
	}

	seen := BitsOf(200, 66, 150)
	got := b.AppendNew(seen, []int32{-1})
	want := []int32{-1, 5, 127, 128}
	if len(got) != len(want) {
		t.Fatalf("AppendNew = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendNew = %v, want %v", got, want)
		}
	}
	if s := seen.String(); s != "{5 66 127 128 150}" {
		t.Fatalf("seen after AppendNew = %s", s)
	}
	if again := b.AppendNew(seen, nil); len(again) != 0 {
		t.Fatalf("second AppendNew = %v, want nothing new", again)
	}
}
