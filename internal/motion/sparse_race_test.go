package motion

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"anomalia/internal/stats"
)

// TestSparseBuildDeterministic: the merged CSR arena must be a pure
// function of the window — identical offsets and neighbour order for
// every worker count, including worker counts beyond the cell and
// vertex populations.
func TestSparseBuildDeterministic(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(808)
	for trial, shape := range []struct {
		n int
		d int
		r float64
	}{
		{300, 2, 0.03},
		{400, 2, 0.01},
		{350, 3, 0.08},
		{300, 1, 0.001},
	} {
		pair := randomPair(t, rng, shape.n, shape.d, 0.5)
		ref := newGraphSparse(pair, allIds(shape.n), shape.r, 1)
		for _, workers := range []int{2, 3, 5, 16, shape.n + 9} {
			g := newGraphSparse(pair, allIds(shape.n), shape.r, workers)
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			if len(g.off) != len(ref.off) || len(g.nbr) != len(ref.nbr) {
				t.Fatalf("%s: CSR shape (%d,%d), want (%d,%d)",
					label, len(g.off), len(g.nbr), len(ref.off), len(ref.nbr))
			}
			for v := range ref.off {
				if g.off[v] != ref.off[v] {
					t.Fatalf("%s: off[%d] = %d, want %d", label, v, g.off[v], ref.off[v])
				}
			}
			for i := range ref.nbr {
				if g.nbr[i] != ref.nbr[i] {
					t.Fatalf("%s: nbr[%d] = %d, want %d", label, i, g.nbr[i], ref.nbr[i])
				}
			}
		}
	}
}

// TestSparseBuildConcurrent exercises the parallel build under the race
// detector: several goroutines building sparse graphs over the same
// shared pair at once (the states are read-only), interleaved with
// dense builds.
func TestSparseBuildConcurrent(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(909)
	pair := randomPair(t, rng, 500, 2, 0.6)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := []float64{0.01, 0.03, 0.05}[i%3]
			g := newGraphSparse(pair, allIds(500), r, 1+i)
			if g.Len() != 500 {
				t.Errorf("builder %d: %d vertices", i, g.Len())
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			NewGraph(pair, allIds(500), 0.02)
		}()
	}
	wg.Wait()
}

// TestSparseEnumerationConcurrent runs concurrent clique enumerations
// over one shared sparse-mode graph under the race detector. The
// sync.Pool-leased scratch (including the densified neighbourhood rows)
// must keep workers isolated.
func TestSparseEnumerationConcurrent(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(1001)
	n := 400
	pair := randomPair(t, rng, n, 2, 0.3)
	g := newGraphSparse(pair, allIds(n), 0.04, 3)
	if !g.Sparse() {
		t.Fatal("graph is not in sparse mode")
	}
	oracle := newGraphAllPairs(pair, allIds(n), 0.04)
	cs, ocs := g.Components(), oracle.Components()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker enumerates every component, starting at its own.
			for i := 0; i < cs.Count(); i++ {
				c := (w + i) % cs.Count()
				got, _ := g.MaximalMotionsOfComponent(c, cs)
				want, _ := oracle.MaximalMotionsOfComponent(c, ocs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("component %d: concurrent enumeration diverged", c)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
