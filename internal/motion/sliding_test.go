package motion

import (
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

func TestSlidingWindowPaperFigures(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		pair func(testing.TB) (*Pair, float64)
		want [][]int
	}{
		{"figure1", func(tb testing.TB) (*Pair, float64) { return figure1Pair(tb) }, figure1Maximal},
		{"figure2", func(tb testing.TB) (*Pair, float64) { return figure2Pair(tb) }, figure2Maximal},
		{"figure3", func(tb testing.TB) (*Pair, float64) { return figure3Pair(tb) }, figure3Maximal},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			pair, r := tt.pair(t)
			got := SlidingWindowMotions(pair, allIds(pair.N()), r)
			if !sameFamily(got, tt.want) {
				t.Errorf("sliding-window motions = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSlidingWindowContaining(t *testing.T) {
	t.Parallel()

	pair, r := figure1Pair(t)
	got := SlidingWindowMotionsContaining(pair, allIds(pair.N()), r, 3)
	want := [][]int{{0, 1, 2, 3}}
	if !sameFamily(got, want) {
		t.Errorf("motions containing device 4 = %v, want %v", got, want)
	}
	if SlidingWindowMotionsContaining(pair, allIds(pair.N()), r, 42) != nil {
		t.Error("anchor outside universe must return nil")
	}
	if SlidingWindowMotions(pair, nil, r) != nil {
		t.Error("empty universe must return nil")
	}
}

// TestSlidingWindowMatchesBronKerbosch is the central cross-check of the
// two enumeration algorithms on random 2-d configurations.
func TestSlidingWindowMatchesBronKerbosch(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(2024)
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(15)
		pair := randomPair(t, rng, n, 2, 0.2)
		const r = 0.05
		g := NewGraph(pair, allIds(n), r)

		bk := g.MaximalMotions()
		sw := SlidingWindowMotions(pair, allIds(n), r)
		if !sameFamily(bk, sw) {
			t.Fatalf("trial %d (n=%d): BK %v != sliding %v", trial, n, bk, sw)
		}

		j := rng.Intn(n)
		bkJ := g.MaximalMotionsContaining(j)
		swJ := SlidingWindowMotionsContaining(pair, allIds(n), r, j)
		if !sameFamily(bkJ, swJ) {
			t.Fatalf("trial %d vertex %d: BK %v != sliding %v", trial, j, bkJ, swJ)
		}
	}

	// Cliques and cliques less one edge, up to a DSLAM-sized motion.
	for _, s := range cliqueSizes {
		for _, minusOne := range []bool{false, true} {
			pair, r, want := cliquePair(t, s, 0, minusOne)
			ids := allIds(pair.N())
			bk := NewGraph(pair, ids, r).MaximalMotions()
			sw := SlidingWindowMotions(pair, ids, r)
			if !sameFamily(bk, sw) || !sameFamily(bk, want) {
				t.Fatalf("s=%d minusOne=%v: BK %v, sliding %v, want %v", s, minusOne, bk, sw, want)
			}
		}
	}
}

// TestSlidingWindow1D exercises the d=1 special case (2 window dims).
func TestSlidingWindow1D(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		pair := randomPair(t, rng, n, 1, 0.4)
		const r = 0.07
		g := NewGraph(pair, allIds(n), r)
		if bk, sw := g.MaximalMotions(), SlidingWindowMotions(pair, allIds(n), r); !sameFamily(bk, sw) {
			t.Fatalf("trial %d: BK %v != sliding %v", trial, bk, sw)
		}
	}
}

// TestSlidingWindow3D exercises a higher-dimensional QoS space (6 window
// dims), beyond the paper's d=2 evaluation.
func TestSlidingWindow3D(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(47)
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(8)
		pair := randomPair(t, rng, n, 3, 0.15)
		const r = 0.05
		g := NewGraph(pair, allIds(n), r)
		if bk, sw := g.MaximalMotions(), SlidingWindowMotions(pair, allIds(n), r); !sameFamily(bk, sw) {
			t.Fatalf("trial %d: BK %v != sliding %v", trial, bk, sw)
		}
	}
}

// TestMotionsArePairwiseMaximal verifies structural invariants of the
// enumeration output: every reported set is a motion; no reported set is
// contained in another; every vertex appears in at least one set.
func TestMotionsArePairwiseMaximal(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(9001)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(20)
		pair := randomPair(t, rng, n, 2, 0.3)
		const r = 0.04
		g := NewGraph(pair, allIds(n), r)
		fam := g.MaximalMotions()

		covered := sets.NewBits(n)
		for i, m := range fam {
			if !pair.ConsistentMotion(m, r) {
				t.Fatalf("reported set %v is not a motion", m)
			}
			for _, id := range m {
				covered.Add(id)
			}
			for j, o := range fam {
				if i != j && sets.SubsetInts(m, o) {
					t.Fatalf("set %v contained in %v", m, o)
				}
			}
		}
		if covered.Len() != n {
			t.Fatalf("maximal motions cover %d of %d vertices", covered.Len(), n)
		}
	}
}

func BenchmarkSlidingWindowMotions(b *testing.B) {
	rng := stats.NewRNG(5)
	pair := randomPair(b, rng, 25, 2, 0.2)
	const r = 0.05
	ids := allIds(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SlidingWindowMotions(pair, ids, r)
	}
}
