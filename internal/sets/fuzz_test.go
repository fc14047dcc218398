package sets

import "testing"

// FuzzBitsAlgebra checks De Morgan-ish identities of the bitset algebra
// on arbitrary member lists: |A| + |B| = |A ∪ B| + |A ∩ B|, and
// A \ B = A ∩ ¬B behaviourally; and the word-shift range copy against
// the bit-by-bit projection it replaces.
func FuzzBitsAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4, 5})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0, 63, 64, 65, 127, 128, 199}, []byte{65, 135})
	f.Add([]byte{10, 70, 130, 190}, []byte{64, 136, 3})
	f.Fuzz(func(t *testing.T, xs, ys []byte) {
		const universe = 200
		a, b := NewBits(universe), NewBits(universe)
		for _, x := range xs {
			a.Add(int(x) % universe)
		}
		for _, y := range ys {
			b.Add(int(y) % universe)
		}
		union := a.Clone()
		union.Or(b)
		inter := a.Clone()
		inter.And(b)
		if a.Len()+b.Len() != union.Len()+inter.Len() {
			t.Fatalf("inclusion-exclusion violated: |A|=%d |B|=%d |A∪B|=%d |A∩B|=%d",
				a.Len(), b.Len(), union.Len(), inter.Len())
		}
		diff := a.Clone()
		diff.AndNot(b)
		if diff.Len() != a.Len()-inter.Len() {
			t.Fatalf("difference size wrong")
		}
		if diff.IntersectionLen(b) != 0 {
			t.Fatal("A \\ B intersects B")
		}
		if !diff.SubsetOf(a) || !inter.SubsetOf(union) {
			t.Fatal("subset laws violated")
		}
		// Round trip through Members.
		rebuilt := BitsOf(universe, a.Members(nil)...)
		if !rebuilt.Equal(a) {
			t.Fatal("Members/BitsOf round trip changed the set")
		}
	})
}

// FuzzCanonIdempotent: Canon is idempotent and produces sorted unique
// output whose elements all come from the input.
func FuzzCanonIdempotent(f *testing.F) {
	f.Add([]byte{5, 1, 5, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := make([]int, len(raw))
		for i, b := range raw {
			in[i] = int(b)
		}
		once := Canon(CloneInts(in))
		twice := Canon(CloneInts(once))
		if !EqualInts(once, twice) {
			t.Fatal("Canon not idempotent")
		}
		for i := 1; i < len(once); i++ {
			if once[i-1] >= once[i] {
				t.Fatal("Canon output not strictly increasing")
			}
		}
		for _, v := range once {
			if !ContainsInt(once, v) {
				t.Fatal("ContainsInt broken on Canon output")
			}
		}
	})
}

// xs2ints widens fuzz bytes to member indices.
func xs2ints(xs []byte) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}
