package core

import (
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

// referenceClassify is a deliberately naive, cache-free re-implementation
// of Algorithm 3 (Theorems 5 and 6 only), used for differential testing
// of the optimized Characterizer. It re-enumerates motions from scratch
// at every step and follows the paper's text literally.
func referenceClassify(pair *motion.Pair, abnormal []int, j int, r float64, tau int) (Class, Rule) {
	g := motion.NewGraph(pair, abnormal, r)

	// W̄_k(j): maximal τ-dense motions containing j.
	var denseJ [][]int
	for _, m := range g.MaximalMotionsContaining(j) {
		if len(m) > tau {
			denseJ = append(denseJ, m)
		}
	}
	if len(denseJ) == 0 {
		return ClassIsolated, RuleTheorem5
	}

	// D_k(j), then J_k(j) by the literal definition: ℓ ∈ J iff every
	// maximal dense motion of ℓ contains j.
	var dk []int
	for _, m := range denseJ {
		dk = sets.UnionInts(dk, m)
	}
	var jSet []int
	for _, l := range dk {
		inJ := true
		for _, m := range g.MaximalMotionsContaining(l) {
			if len(m) > tau && !sets.ContainsInt(m, j) {
				inJ = false
				break
			}
		}
		if inJ {
			jSet = append(jSet, l)
		}
	}

	// Theorem 6 literal form: ∃B ∈ W_k(j) (any dense motion containing j)
	// with B ⊆ J_k(j).
	if denseSubsetWith(pair, r, tau, j, jSet) {
		return ClassMassive, RuleTheorem6
	}
	return ClassUnresolved, RuleNone
}

// denseSubsetWith reports, by brute force over Pair.ConsistentMotion,
// whether some (τ+1)-subset of within ∪ {j} that contains j is an
// r-consistent motion. Motions are closed under subsets, so that is
// exactly whether a τ-dense motion containing j lies inside within ∪
// {j}.
func denseSubsetWith(pair *motion.Pair, r float64, tau, j int, within []int) bool {
	others := sets.DiffInts(within, []int{j})
	pick := make([]int, 0, tau+1)
	var choose func(from int) bool
	choose = func(from int) bool {
		if len(pick) == tau {
			return pair.ConsistentMotion(append(pick, j), r)
		}
		for i := from; i <= len(others)-(tau-len(pick)); i++ {
			pick = append(pick, others[i])
			found := choose(i + 1)
			pick = pick[:len(pick)-1]
			if found {
				return true
			}
		}
		return false
	}
	return choose(0)
}

// TestDifferentialAgainstReference compares the optimized cheap-mode
// characterizer with the naive reference on random windows.
func TestDifferentialAgainstReference(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31337)
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(25)
		pair := randomPair(t, rng, n, 1+rng.Intn(2), 0.2+0.3*rng.Float64())
		tau := 1 + rng.Intn(3)
		const r = 0.05

		c, err := New(pair, allIds(n), Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range allIds(n) {
			got, err := c.Characterize(j)
			if err != nil {
				t.Fatal(err)
			}
			wantClass, wantRule := referenceClassify(pair, allIds(n), j, r, tau)
			if got.Class != wantClass || got.Rule != wantRule {
				t.Fatalf("trial %d device %d: optimized (%v,%v) != reference (%v,%v)",
					trial, j, got.Class, got.Rule, wantClass, wantRule)
			}
		}
	}
}

// TestDifferentialTheorem6Equivalence: the |M ∩ J| > τ implementation of
// Theorem 6 agrees with the subset form B ⊆ J searched directly.
func TestDifferentialTheorem6Equivalence(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2718)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(15)
		pair := randomPair(t, rng, n, 2, 0.15)
		const r, tau = 0.05, 2
		c, err := New(pair, allIds(n), Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range allIds(n) {
			res, err := c.Characterize(j)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rule == RuleTheorem5 {
				continue
			}
			// Direct subset search within J.
			direct := denseSubsetWith(pair, r, tau, j, res.J)
			viaIntersection := res.Rule == RuleTheorem6
			if direct != viaIntersection {
				t.Fatalf("trial %d device %d: subset form %v, intersection form %v (J=%v dense=%v)",
					trial, j, direct, viaIntersection, res.J, res.Dense)
			}
		}
	}
}

// newCharacterizer wires a characterizer over an already-built motion
// graph of the abnormal set, as Refill does over the graph it builds:
// benchmarks reuse one read-only graph across fresh characterizers.
func newCharacterizer(pair *motion.Pair, ids []int, cfg Config, g *motion.Graph) *Characterizer {
	return &Characterizer{pair: pair, abnormal: ids, cfg: cfg, graph: g, comps: g.Components(), memo: make([]memoEntry, len(ids))}
}
