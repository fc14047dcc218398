package core

import (
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

// TestRelation4MatchesBruteForce pins the relation-(4) test of the
// Theorem 7 search — some M ∈ W̄_k(j) keeps more than τ members outside
// the collection's union — to the relation as the paper states it,
// searched by brute force: some (τ+1)-subset of (D_k(j) \ used) ∪ {j}
// that contains j is an r-consistent motion. It runs on every device
// Theorem 6 leaves undecided in small crowded windows, for random unions
// used ⊆ D_k(j) \ {j}.
func TestRelation4MatchesBruteForce(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(4747)
	// firstStarved counts unions that starve j's first dense motion while
	// a later one survives; exactlyTau those whose best survivor keeps
	// exactly τ members. A predicate reading only the first motion, or
	// testing >= τ, gets these wrong.
	var survived, starved, firstStarved, exactlyTau int
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.Intn(9)
		tau := 2 + rng.Intn(2)
		const r = 0.06
		pair := randomPair(t, rng, n, 1+rng.Intn(2), 0.1+0.2*rng.Float64())
		c, err := New(pair, allIds(n), Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range allIds(n) {
			res, err := c.Characterize(j)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rule != RuleNone {
				continue
			}
			dk := sets.UnionInts(res.J, res.L)
			others := sets.DiffInts(dk, []int{j})
			s := &violSearch{c: c, j: j, dense: res.Dense}
			for draw := 0; draw < 12; draw++ {
				var used []int
				for _, x := range others {
					if rng.Float64() < 0.4 {
						used = append(used, x)
					}
				}
				got := s.survives(used)
				want := denseSubsetWith(pair, r, tau, j, sets.DiffInts(dk, used))
				if got != want {
					t.Fatalf("trial %d device %d: relation (4) after %v is %v, brute force %v (dense %v)",
						trial, j, used, got, want, res.Dense)
				}
				best := 0
				for _, m := range res.Dense {
					best = max(best, len(sets.DiffInts(m, used)))
				}
				switch {
				case !want && best == tau:
					exactlyTau++
				case !want:
					starved++
				case len(sets.DiffInts(res.Dense[0], used)) <= tau:
					firstStarved++
				default:
					survived++
				}
			}
		}
	}
	if survived == 0 || starved == 0 || firstStarved == 0 || exactlyTau == 0 {
		t.Fatalf("fixtures lack cover: %d survived, %d starved, %d with the first motion starved, %d at exactly τ",
			survived, starved, firstStarved, exactlyTau)
	}
}
