package sets

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsBasic(t *testing.T) {
	t.Parallel()

	b := NewBits(130)
	if !b.Empty() {
		t.Fatal("new bitset must be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		b.Add(i)
		if !b.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	if got, want := b.Len(), 7; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
	b.Remove(64)
	if b.Has(64) {
		t.Error("Has(64) = true after Remove")
	}
	if got, want := b.Len(), 6; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
}

func TestBitsOutOfRange(t *testing.T) {
	t.Parallel()

	b := NewBits(10)
	b.Add(-1)
	b.Add(10)
	b.Add(1000)
	if !b.Empty() {
		t.Error("out-of-universe Add must be ignored")
	}
	if b.Has(-1) || b.Has(10) {
		t.Error("out-of-universe Has must be false")
	}
	b.Remove(-1) // must not panic
	b.Remove(99)
}

func TestBitsOf(t *testing.T) {
	t.Parallel()

	b := BitsOf(8, 3, 1, 5, 3)
	want := []int{1, 3, 5}
	if got := b.Members(nil); !EqualInts(got, want) {
		t.Errorf("Members() = %v, want %v", got, want)
	}
}

func TestBitsSetOps(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		a, b []int
		op   func(a, b *Bits)
		want []int
	}{
		{"union", []int{1, 2}, []int{2, 70}, (*Bits).Or, []int{1, 2, 70}},
		{"intersection", []int{1, 2, 70}, []int{2, 70, 99}, (*Bits).And, []int{2, 70}},
		{"difference", []int{1, 2, 70}, []int{2}, (*Bits).AndNot, []int{1, 70}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			a := BitsOf(128, tt.a...)
			b := BitsOf(128, tt.b...)
			tt.op(a, b)
			if got := a.Members(nil); !EqualInts(got, tt.want) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBitsSubsetEqual(t *testing.T) {
	t.Parallel()

	a := BitsOf(100, 1, 2, 3)
	b := BitsOf(100, 1, 2, 3, 99)
	if !a.SubsetOf(b) {
		t.Error("a must be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b must not be subset of a")
	}
	if !a.SubsetOf(a.Clone()) {
		t.Error("a must be subset of its clone")
	}
	if !a.Equal(a.Clone()) {
		t.Error("a must equal its clone")
	}
	if a.Equal(b) {
		t.Error("a must not equal b")
	}
}

func TestBitsIntersection(t *testing.T) {
	t.Parallel()

	a := BitsOf(200, 0, 64, 128, 199)
	b := BitsOf(200, 64, 199)
	if got, want := a.IntersectionLen(b), 2; got != want {
		t.Errorf("IntersectionLen = %d, want %d", got, want)
	}
	if got := a.IntersectionLen(BitsOf(200, 1, 2)); got != 0 {
		t.Errorf("IntersectionLen of disjoint sets = %d", got)
	}
}

func TestBitsMinForEach(t *testing.T) {
	t.Parallel()

	b := BitsOf(300, 250, 17, 90)
	min, ok := b.Min()
	if !ok || min != 17 {
		t.Errorf("Min() = %d,%v want 17,true", min, ok)
	}
	var seen []int
	b.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !EqualInts(seen, []int{17, 90}) {
		t.Errorf("ForEach early stop saw %v", seen)
	}
	if _, ok := NewBits(10).Min(); ok {
		t.Error("Min of empty set must report !ok")
	}
}

func TestBitsKeyCanonical(t *testing.T) {
	t.Parallel()

	a := BitsOf(128, 5, 77)
	b := BitsOf(128, 77, 5)
	if a.Key() != b.Key() {
		t.Error("equal sets must have equal keys")
	}
	c := BitsOf(128, 5)
	if a.Key() == c.Key() {
		t.Error("different sets must have different keys")
	}
}

func TestBitsClearClone(t *testing.T) {
	t.Parallel()

	a := BitsOf(64, 1, 2, 3)
	c := a.Clone()
	a.Clear()
	if !a.Empty() {
		t.Error("Clear must empty the set")
	}
	if c.Len() != 3 {
		t.Error("Clone must be independent of the original")
	}
	if got, want := a.Universe(), 64; got != want {
		t.Errorf("Universe() = %d, want %d", got, want)
	}
}

// TestBitsQuickAgainstMap checks bitset operations against a reference
// map-based implementation on random inputs.
func TestBitsQuickAgainstMap(t *testing.T) {
	t.Parallel()

	const universe = 150
	f := func(xs, ys []uint8) bool {
		a, b := NewBits(universe), NewBits(universe)
		am, bm := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			i := int(x) % universe
			a.Add(i)
			am[i] = true
		}
		for _, y := range ys {
			i := int(y) % universe
			b.Add(i)
			bm[i] = true
		}
		if a.Len() != len(am) || b.Len() != len(bm) {
			return false
		}
		u := a.Clone()
		u.Or(b)
		inter := a.Clone()
		inter.And(b)
		diff := a.Clone()
		diff.AndNot(b)
		wantInter := 0
		for k := range am {
			if bm[k] {
				wantInter++
			}
		}
		if inter.Len() != wantInter || a.IntersectionLen(b) != wantInter {
			return false
		}
		if u.Len() != len(am)+len(bm)-wantInter {
			return false
		}
		return diff.Len() == len(am)-wantInter
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkBitsIntersectionLen(b *testing.B) {
	x := NewBits(1024)
	y := NewBits(1024)
	for i := 0; i < 1024; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionLen(y)
	}
}
