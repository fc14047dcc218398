package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"anomalia/internal/sets"
)

// maxSubsetGround bounds the per-motion ground set for exhaustive subset
// enumeration in the exact search (2^20 masks at worst). Realistic
// neighbourhood sizes stay far below this.
const maxSubsetGround = 20

// searchViolating implements Algorithms 4/5: it hunts for a collection C
// of pairwise-disjoint dense motions from the family
//
//	{B ∈ W_k(ℓ) | ℓ ∈ L_k(j), j ∉ B}
//
// for which relation (4) fails — no dense motion containing j survives in
// D_k(j) \ ∪C — and relation (5) fails — no B ∈ C extends to a dense
// motion with j. Such a C certifies j ∈ U_k (Corollary 8); exhausting the
// space without finding one certifies j ∈ M_k (Theorem 7). dense is
// W̄_k(j), which relation (4) is read off (see survives).
//
// Every member of a violating collection must contain a device of L_k(j),
// have more than τ members, and include at least one device non-adjacent
// to j (otherwise B ∪ {j} would be a dense motion and relation (5) would
// hold). Every such B is a subset of some maximal dense motion M ∈ W̄_k(ℓ)
// with ℓ ∈ L_k(j) and j ∉ M, so the search enumerates subsets of that
// maximal family, passed as ms (see blockerMotions).
func (c *Characterizer) searchViolating(j int, dense [][]int, L []int, ms [][]int) (bool, int, error) {
	budget := c.cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := &violSearch{
		c:      c,
		j:      j,
		dense:  dense,
		L:      L,
		ms:     ms,
		budget: budget,
	}
	found, err := s.dfs(0, nil)
	return found, s.tested, err
}

// blockerMotions assembles the family searchViolating draws blockers
// from for a device j of family f: the maximal dense motions anchored
// at L_k(j) that exclude j,
//
//	{M ∈ W̄_k(ℓ) | ℓ ∈ L_k(j), j ∉ M},
//
// deduplicated and in lexicographic order. The motions are shared by
// every family of the component, so they dedupe by their index in the
// component's motion list, whose order is lexicographic. A dense motion
// contains j iff it belongs to W̄_k(j), so that test is on indices too.
func (c *Characterizer) blockerMotions(f *family) [][]int {
	type motionRef struct {
		idx int
		ids []int
	}
	var refs []motionRef
	var prev *family
	for _, l := range f.l {
		ll, _ := c.graph.Local(l)
		g := c.memo[ll].fam
		if g == prev {
			continue
		}
		prev = g
		for k, mi := range g.idx {
			if !sets.ContainsInt(f.idx, mi) {
				refs = append(refs, motionRef{mi, g.ids[k]})
			}
		}
	}
	slices.SortFunc(refs, func(a, b motionRef) int { return cmp.Compare(a.idx, b.idx) })
	refs = slices.CompactFunc(refs, func(a, b motionRef) bool { return a.idx == b.idx })
	ms := make([][]int, len(refs))
	for i, r := range refs {
		ms[i] = r.ids
	}
	return ms
}

type violSearch struct {
	c      *Characterizer
	j      int
	dense  [][]int
	L      []int
	ms     [][]int
	budget int
	tested int
	// availBuf is scratch for the per-node set differences. Sharing it
	// across the recursion is safe because each use fully consumes its
	// difference (a length test, the subsets enumeration) before the
	// next recomputes it.
	availBuf []int
}

// dfs extends the current collection (whose union is `used`, sorted) with
// subsets drawn from ms[idx:]. It tests the violation condition at every
// node, including the empty collection at the root.
func (s *violSearch) dfs(idx int, used []int) (bool, error) {
	s.tested++
	s.budget--
	if s.budget < 0 {
		return false, fmt.Errorf("device %d: %w", s.j, ErrBudget)
	}
	// Relation (5) fails by construction of every added subset, so
	// failure of (4) certifies a violating collection.
	if !s.survives(used) {
		return true, nil
	}

	for mi := idx; mi < len(s.ms); mi++ {
		s.availBuf = sets.DiffIntsInto(s.availBuf[:0], s.ms[mi], used)
		avail := s.availBuf
		if len(avail) <= s.c.cfg.Tau {
			continue
		}
		subsetsFound, err := s.subsets(avail)
		if err != nil {
			return false, err
		}
		for _, b := range subsetsFound {
			// Staying at index mi permits a second disjoint subset of the
			// same maximal motion when it is large enough.
			found, err := s.dfs(mi, sets.UnionInts(used, b))
			if err != nil {
				return false, err
			}
			if found {
				return true, nil
			}
		}
	}
	return false, nil
}

// survives tests relation (4) for a collection whose union is used
// (sorted, without j): does some τ-dense motion containing j lie within
// D_k(j) \ used? It does iff some M ∈ W̄_k(j) keeps more than τ members
// outside used. Such a motion extends to a maximal dense one, which
// contains j and so belongs to W̄_k(j); conversely M \ used is a subset
// of a clique, hence a motion, it holds j (blockers exclude j), and it
// lies in D_k(j), the union of W̄_k(j).
func (s *violSearch) survives(used []int) bool {
	for _, m := range s.dense {
		s.availBuf = sets.DiffIntsInto(s.availBuf[:0], m, used)
		if len(s.availBuf) > s.c.cfg.Tau {
			return true
		}
	}
	return false
}

// subsets enumerates the admissible blocker subsets of avail, in
// decreasing size (the order of Algorithm 5): more than τ members, at
// least one member of L_k(j), and at least one member non-adjacent to j.
func (s *violSearch) subsets(avail []int) ([][]int, error) {
	n := len(avail)
	if n > maxSubsetGround {
		return nil, fmt.Errorf("ground set of %d devices for device %d: %w", n, s.j, ErrBudget)
	}
	var lMask, nonAdjMask uint32
	for i, id := range avail {
		if sets.ContainsInt(s.L, id) {
			lMask |= 1 << uint(i)
		}
		if !s.c.graph.Adjacent(id, s.j) {
			nonAdjMask |= 1 << uint(i)
		}
	}
	var out [][]int
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		if bits.OnesCount32(mask) <= s.c.cfg.Tau {
			continue
		}
		if mask&lMask == 0 || mask&nonAdjMask == 0 {
			continue
		}
		b := make([]int, 0, bits.OnesCount32(mask))
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				b = append(b, avail[i])
			}
		}
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out, nil
}
