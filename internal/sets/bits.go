// Package sets provides the small-set algebra used by the combinatorial
// routines of the anomaly characterizer: dense bitsets over a bounded
// universe of device indices and sorted integer slices.
//
// Motion enumeration, anomaly-partition search and the Theorem 7 collection
// search all manipulate many small subsets of the abnormal-device set A_k;
// bitsets keep those operations allocation-free and branch-cheap.
package sets

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Bits is a dense bitset over the universe [0, n). The zero value is an
// empty set over an empty universe; use NewBits to size it.
//
// All binary operations require both operands to share the same universe
// size; mixing sizes is a programmer error and results are unspecified
// beyond the shorter universe.
type Bits struct {
	words []uint64
	n     int
}

// NewBits returns an empty bitset over the universe [0, n).
func NewBits(n int) *Bits {
	if n < 0 {
		n = 0
	}
	return &Bits{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// BitsOf returns a bitset over [0, n) holding exactly the given members.
// Members outside [0, n) are ignored.
func BitsOf(n int, members ...int) *Bits {
	b := NewBits(n)
	for _, m := range members {
		b.Add(m)
	}
	return b
}

// NewBitsRows returns count empty bitsets over [0, n), all backed by a
// single shared words arena — 3 allocations however many rows, where
// one NewBits per row costs 2·count. Rows must not be Resized (Resize
// would leave the arena but every other operation keeps the backing
// shared).
func NewBitsRows(count, n int) []*Bits {
	count, n = max(count, 0), max(n, 0)
	_, rows := RowViews(make([]uint64, count*((n+wordBits-1)/wordBits)), count, n, nil, nil)
	return rows
}

// RowViews points count bitsets over [0, n) at consecutive rows of
// words, ceil(n/64) words each, without copying: a view reads and
// writes words itself, so views must not be Resized. It returns the
// headers and pointers to them, reusing hdr and ptr when their capacity
// allows — pass a previous call's results back to recycle them.
func RowViews(words []uint64, count, n int, hdr []Bits, ptr []*Bits) ([]Bits, []*Bits) {
	wpr := (n + wordBits - 1) / wordBits
	if cap(hdr) < count {
		hdr = make([]Bits, count)
	}
	if cap(ptr) < count {
		ptr = make([]*Bits, count)
	}
	hdr, ptr = hdr[:count], ptr[:count]
	for i := range hdr {
		hdr[i] = Bits{words: words[i*wpr : (i+1)*wpr : (i+1)*wpr], n: n}
		ptr[i] = &hdr[i]
	}
	return hdr, ptr
}

// Universe returns the size n of the universe [0, n).
func (b *Bits) Universe() int { return b.n }

// Add inserts i into the set. Out-of-universe indices are ignored.
func (b *Bits) Add(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Out-of-universe indices are ignored.
func (b *Bits) Remove(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is a member.
func (b *Bits) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Len returns the cardinality of the set.
func (b *Bits) Len() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no members.
func (b *Bits) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of o. Both sets must share
// the same universe size.
func (b *Bits) CopyFrom(o *Bits) {
	copy(b.words, o.words)
}

// Resize clears b and sets its universe to [0, n), reusing the existing
// words allocation when it is large enough. It is the recycling hook of
// scratch pools whose leased sets serve universes of varying size (the
// sparse clique enumeration densifies a different neighbourhood subgraph
// per vertex).
func (b *Bits) Resize(n int) {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Clear removes all members, keeping the universe.
func (b *Bits) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Or sets b to the union b ∪ o.
func (b *Bits) Or(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] |= o.words[i]
		}
	}
}

// And sets b to the intersection b ∩ o.
func (b *Bits) And(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// AndNot sets b to the difference b \ o.
func (b *Bits) AndNot(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &^= o.words[i]
		}
	}
}

// IntersectionLen returns |b ∩ o| without allocating.
func (b *Bits) IntersectionLen(o *Bits) int {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(b.words[i] & o.words[i])
	}
	return total
}

// SubsetOf reports whether every member of b is a member of o.
func (b *Bits) SubsetOf(o *Bits) bool {
	for i, w := range b.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o hold exactly the same members.
func (b *Bits) Equal(o *Bits) bool {
	longer, shorter := b.words, o.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	for i, w := range shorter {
		if w != longer[i] {
			return false
		}
	}
	for _, w := range longer[len(shorter):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Members appends the elements of the set, in increasing order, to dst and
// returns the extended slice. Pass nil to allocate.
func (b *Bits) Members(dst []int) []int {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every member in increasing order. It stops early if
// fn returns false.
func (b *Bits) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Min returns the smallest member and true, or (0, false) when empty.
func (b *Bits) Min() (int, bool) {
	for wi, w := range b.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Key returns a canonical string key for use in maps. Two sets over the
// same universe have equal keys iff they are Equal.
func (b *Bits) Key() string {
	var sb strings.Builder
	sb.Grow(len(b.words) * 17)
	for _, w := range b.words {
		sb.WriteString(strconv.FormatUint(w, 16))
		sb.WriteByte(',')
	}
	return sb.String()
}

// String renders the set as "{a b c}" for debugging.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
