package sets

// Sorted is an ascending, duplicate-free list of int32 indices — the
// neighbour-row representation of the sparse motion-graph adjacency
// (internal/motion stores one Sorted view per vertex into a shared CSR
// arena). int32 keeps rows at half the footprint of []int while covering
// every realistic vertex count; the motion graph's local indices are
// bounded by the device population.
//
// A Sorted is a plain slice: rows alias their arena and must be treated
// as read-only by consumers, mirroring the ownership rule of
// motion.Graph.Ids.
type Sorted []int32

// Len returns the number of elements.
func (s Sorted) Len() int { return len(s) }

// Has reports whether v is an element, by binary search.
func (s Sorted) Has(v int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// ForEach calls fn for every element in increasing order. It stops early
// if fn returns false.
func (s Sorted) ForEach(fn func(v int32) bool) {
	for _, v := range s {
		if !fn(v) {
			return
		}
	}
}

// IntersectPositions calls fn with the position (index into verts) of
// every element of verts that is also an element of s, in increasing
// order — the densification primitive of the sparse clique enumeration:
// verts is a subgraph's sub-universe and the positions index its dense
// bitsets.
func (s Sorted) IntersectPositions(verts Sorted, fn func(pos int)) {
	i, j := 0, 0
	for i < len(s) && j < len(verts) {
		switch {
		case s[i] < verts[j]:
			i++
		case s[i] > verts[j]:
			j++
		default:
			fn(j)
			i++
			j++
		}
	}
}

// InsertInto appends the elements of s with v inserted in order to dst
// and returns the extended slice (v is not duplicated when already
// present). dst must not alias s.
func (s Sorted) InsertInto(v int32, dst Sorted) Sorted {
	i := 0
	for ; i < len(s) && s[i] < v; i++ {
		dst = append(dst, s[i])
	}
	dst = append(dst, v)
	if i < len(s) && s[i] == v {
		i++
	}
	return append(dst, s[i:]...)
}
