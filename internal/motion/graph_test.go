package motion

import (
	"fmt"
	"slices"
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

func TestGraphPaperFigure1(t *testing.T) {
	t.Parallel()

	pair, r := figure1Pair(t)
	g := NewGraph(pair, allIds(pair.N()), r)
	got := g.MaximalMotions()
	if !sameFamily(got, figure1Maximal) {
		t.Errorf("Figure 1 maximal motions = %v, want %v", got, figure1Maximal)
	}

	// Device 1 (index 0) belongs to both maximal sets.
	containing := g.MaximalMotionsContaining(0)
	if !sameFamily(containing, figure1Maximal) {
		t.Errorf("motions containing device 1 = %v, want %v", containing, figure1Maximal)
	}
	// Device 4 (index 3) belongs only to B1.
	containing = g.MaximalMotionsContaining(3)
	if !sameFamily(containing, [][]int{{0, 1, 2, 3}}) {
		t.Errorf("motions containing device 4 = %v", containing)
	}
}

func TestGraphPaperFigure2(t *testing.T) {
	t.Parallel()

	pair, r := figure2Pair(t)
	g := NewGraph(pair, allIds(pair.N()), r)
	got := g.MaximalMotions()
	if !sameFamily(got, figure2Maximal) {
		t.Errorf("Figure 2 maximal motions = %v, want %v", got, figure2Maximal)
	}
}

func TestGraphPaperFigure3(t *testing.T) {
	t.Parallel()

	pair, r := figure3Pair(t)
	g := NewGraph(pair, allIds(pair.N()), r)
	got := g.MaximalMotions()
	if !sameFamily(got, figure3Maximal) {
		t.Errorf("Figure 3 maximal motions = %v, want %v", got, figure3Maximal)
	}
	// Device 3 (index 2) is in both maximal motions.
	containing := g.MaximalMotionsContaining(2)
	if !sameFamily(containing, figure3Maximal) {
		t.Errorf("motions containing device 3 = %v", containing)
	}
}

func TestGraphBasics(t *testing.T) {
	t.Parallel()

	pair, r := figure1Pair(t)
	g := NewGraph(pair, []int{0, 1, 2, 3, 4, 5, 5, 99, -3}, r)
	if g.Len() != 6 {
		t.Errorf("Len = %d, want 6 (dedup + range filter)", g.Len())
	}
	if !g.Has(0) || g.Has(99) {
		t.Error("Has misbehaved")
	}
	if !g.Adjacent(0, 1) {
		t.Error("0-1 must be adjacent")
	}
	if g.Adjacent(3, 4) {
		t.Error("3-4 must not be adjacent")
	}
	if !g.Adjacent(2, 2) {
		t.Error("self adjacency expected")
	}
	if g.Adjacent(0, 99) {
		t.Error("missing vertex must not be adjacent")
	}
	if g.Degree(99) != -1 {
		t.Error("Degree of missing vertex must be -1")
	}
	// Device 0 (=paper 1) is adjacent to 1, 2, 3, 4, 5? Check: it is within
	// 2r of 1,2 (0.05,0.08), 3 (0.10), 4 (0.12), 5 (0.15) -> degree 5.
	if got := g.Degree(0); got != 5 {
		t.Errorf("Degree(0) = %d, want 5", got)
	}
	if g.MaximalMotionsContaining(99) != nil {
		t.Error("motions containing a missing vertex must be nil")
	}
}

func TestGraphIsClique(t *testing.T) {
	t.Parallel()

	pair, r := figure3Pair(t)
	g := NewGraph(pair, allIds(pair.N()), r)
	if !g.IsClique([]int{0, 1, 2, 3}) {
		t.Error("{1,2,3,4} must be a clique")
	}
	if g.IsClique([]int{0, 4}) {
		t.Error("{1,5} must not be a clique")
	}
	if !g.IsClique(nil) || !g.IsClique([]int{2}) {
		t.Error("empty and singleton sets are cliques")
	}
	if g.IsClique([]int{0, 77}) {
		t.Error("clique containing a missing vertex must be false")
	}
}

func TestGraphOnSubset(t *testing.T) {
	t.Parallel()

	pair, r := figure1Pair(t)
	// Restrict to devices {0,1,2,4,5}: without device 3, the only maximal
	// motion containing 0 is {0,1,2,4,5}.
	g := NewGraph(pair, []int{0, 1, 2, 4, 5}, r)
	got := g.MaximalMotions()
	want := [][]int{{0, 1, 2, 4, 5}}
	if !sameFamily(got, want) {
		t.Errorf("subset maximal motions = %v, want %v", got, want)
	}
}

// hasDenseMotionContaining answers the Theorem 7 question from the
// maximal family: a τ-dense motion containing j lies within allowed ∪
// {j} iff some maximal motion containing j keeps more than τ members
// there (a dense motion extends to a maximal one; a maximal one cut
// down to allowed ∪ {j} is still a motion and still holds j).
func hasDenseMotionContaining(g *Graph, j int, allowed []int, tau int) bool {
	return denseWithin(g.MaximalMotionsContaining(j), j, allowed, tau)
}

// denseWithin reports whether some motion of fam keeps more than τ
// members inside allowed ∪ {j}.
func denseWithin(fam [][]int, j int, allowed []int, tau int) bool {
	for _, m := range fam {
		kept := 0
		for _, id := range m {
			if id == j || slices.Contains(allowed, id) {
				kept++
			}
		}
		if kept > tau {
			return true
		}
	}
	return false
}

// TestHasDenseMotionContaining pins the family form of the Theorem 7
// question on Figure 3, whose answers are known by hand.
func TestHasDenseMotionContaining(t *testing.T) {
	t.Parallel()

	pair, r := figure3Pair(t)
	g := NewGraph(pair, allIds(pair.N()), r)
	// τ=3: dense motions containing device 0 need 4 members: {0,1,2,3}.
	if !hasDenseMotionContaining(g, 0, []int{1, 2, 3, 4}, 3) {
		t.Error("device 0 has a dense motion within {1,2,3,4}")
	}
	// Without device 3 there are only 3 candidates adjacent to 0.
	if hasDenseMotionContaining(g, 0, []int{1, 2, 4}, 3) {
		t.Error("no dense motion for device 0 within {1,2,4}")
	}
	// τ=2 only needs 3 members.
	if !hasDenseMotionContaining(g, 0, []int{1, 2}, 2) {
		t.Error("device 0 has a 2-dense motion within {1,2}")
	}
	if hasDenseMotionContaining(g, 42, []int{1, 2}, 1) {
		t.Error("missing vertex cannot have dense motions")
	}
}

// TestBronKerboschAgainstBruteForce compares maximal cliques with a brute
// force subset enumeration on small random graphs.
func TestBronKerboschAgainstBruteForce(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(77)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(8) // up to 11 vertices
		pair := randomPair(t, rng, n, 2, 0.25)
		const r = 0.06
		g := NewGraph(pair, allIds(n), r)

		got := g.MaximalMotions()
		want := bruteMaximalCliques(pair, n, r)
		if !sameFamily(got, want) {
			t.Fatalf("trial %d: BK = %v, brute = %v", trial, got, want)
		}

		// Per-vertex variant agrees with the filtered global family.
		for j := 0; j < n; j++ {
			gotJ := g.MaximalMotionsContaining(j)
			var wantJ [][]int
			for _, m := range want {
				if sets.ContainsInt(m, j) {
					wantJ = append(wantJ, m)
				}
			}
			if !sameFamily(gotJ, wantJ) {
				t.Fatalf("trial %d vertex %d: containing = %v, want %v", trial, j, gotJ, wantJ)
			}
		}
	}

	// Cliques and cliques less one edge, whose maximal motions are known
	// in closed form (the brute force cross-checks the smallest): the
	// whole-graph enumeration, its per-vertex filter and the
	// per-component enumeration must all find them, with the clique at
	// word-aligned and unaligned offsets.
	for _, s := range cliqueSizes {
		for _, lead := range []int{0, 3} {
			for _, minusOne := range []bool{false, true} {
				pair, r, want := cliquePair(t, s, lead, minusOne)
				label := fmt.Sprintf("s=%d lead=%d minusOne=%v", s, lead, minusOne)
				if n := pair.N(); n <= 11 {
					if brute := bruteMaximalCliques(pair, n, r); !sameFamily(brute, want) {
						t.Fatalf("%s: fixture wrong: brute = %v, want %v", label, brute, want)
					}
				}
				g := NewGraph(pair, allIds(pair.N()), r)
				if got := g.MaximalMotions(); !sameFamily(got, want) {
					t.Fatalf("%s: BK = %v, want %v", label, got, want)
				}
				for _, j := range []int{0, lead, lead + s/2, lead + s - 1} {
					var wantJ [][]int
					for _, m := range want {
						if sets.ContainsInt(m, j) {
							wantJ = append(wantJ, m)
						}
					}
					if got := g.MaximalMotionsContaining(j); !sameFamily(got, wantJ) {
						t.Fatalf("%s vertex %d: containing = %v, want %v", label, j, got, wantJ)
					}
				}
				cs := g.Components()
				c := cs.Of(lead)
				var wantC [][]int
				for _, m := range want {
					if cs.Of(m[0]) == c {
						wantC = append(wantC, m)
					}
				}
				got, bits := g.MaximalMotionsOfComponent(c, cs)
				if !sameFamily(got, wantC) {
					t.Fatalf("%s: component motions = %v, want %v", label, got, wantC)
				}
				for i, b := range bits {
					back := cs.AppendIds(b, c, nil)
					if !sameFamily([][]int{back}, [][]int{got[i]}) {
						t.Fatalf("%s: component bitset %d = %v, ids %v", label, i, back, got[i])
					}
				}
			}
		}
	}
}

// bruteMaximalCliques enumerates maximal motions by checking all 2^n
// subsets — only usable for tiny n.
func bruteMaximalCliques(p *Pair, n int, r float64) [][]int {
	var cliques [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var ids []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				ids = append(ids, v)
			}
		}
		if !p.ConsistentMotion(ids, r) {
			continue
		}
		// Maximal?
		maximal := true
		for v := 0; v < n && maximal; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			ext := append(append([]int{}, ids...), v)
			if p.ConsistentMotion(ext, r) {
				maximal = false
			}
		}
		if maximal {
			cliques = append(cliques, ids)
		}
	}
	sets.SortSets(cliques)
	return cliques
}

func BenchmarkMaximalMotions(b *testing.B) {
	rng := stats.NewRNG(5)
	pair := randomPair(b, rng, 60, 2, 0.3)
	const r = 0.05
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGraph(pair, allIds(60), r)
		_ = g.MaximalMotions()
	}
}
