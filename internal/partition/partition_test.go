package partition

import (
	"errors"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/paperfig"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

func mustFigure(t testing.TB, build func() (*paperfig.Config, error)) *paperfig.Config {
	t.Helper()
	cfg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestValidateAcceptsPaperPartitions(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name       string
		build      func() (*paperfig.Config, error)
		partitions [][][]int
	}{
		{"figure2", paperfig.Figure2, paperfig.Figure2Partitions()},
		{"figure3", paperfig.Figure3, paperfig.Figure3Partitions()},
		{"figure5", paperfig.Figure5, paperfig.Figure5Partitions()},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			cfg := mustFigure(t, tt.build)
			for i, blocks := range tt.partitions {
				p := Partition(blocks)
				if err := Validate(cfg.Pair, p, cfg.Abnormal, cfg.R, cfg.Tau); err != nil {
					t.Errorf("paper partition %d rejected: %v", i, err)
				}
			}
		})
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure3)
	pair, r, tau := cfg.Pair, cfg.R, cfg.Tau
	abnormal := cfg.Abnormal

	tests := []struct {
		name    string
		p       Partition
		wantErr error
	}{
		{"empty block", Partition{{0, 1, 2, 3}, {4}, {}}, ErrNotPartition},
		{"missing device", Partition{{0, 1, 2, 3}}, ErrNotPartition},
		{"duplicate device", Partition{{0, 1, 2, 3}, {3, 4}}, ErrNotPartition},
		{"foreign device", Partition{{0, 1, 2, 3}, {4, 9}}, ErrNotPartition},
		{"non-motion block", Partition{{0, 4}, {1, 2, 3}}, ErrNotMotion},
		// All-sparse partition: {1,2,3,4} (0-based {0,1,2,3}) is a dense
		// motion inside the sparse union.
		{"C1 violation", Partition{{0, 1, 2}, {3, 4}}, ErrC1},
		// {{1},{2,3,4},{5}} keeps every block sparse; adding 0 to the
		// sparse union with dense block... use figure3: {{0,1,2},{3},{4}}
		// is all-sparse -> C1. A C2 case: dense {1,2,3} with 0 adjacent to
		// all of it.
		{"C2 violation", Partition{{1, 2, 3, 4}, {0}}, nil},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			err := Validate(pair, tt.p, abnormal, r, tau)
			if tt.wantErr == nil {
				return // placeholder rows validated separately below
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidateC2Violation(t *testing.T) {
	t.Parallel()

	// τ=2 on Figure 4(a): {{1},{2,4,5},{3}} in paper numbering is
	// invalid because device 1 extends nothing… build an explicit C2 case
	// instead: dense block {1,2,3} (0-based {0,1,2} of figure3) with
	// device 3 sparse but adjacent to the whole block.
	cfg := mustFigure(t, paperfig.Figure3)
	p := Partition{{0, 1, 2}, {3}, {4}}
	err := Validate(cfg.Pair, p, cfg.Abnormal, cfg.R, 2)
	if !errors.Is(err, ErrC1) && !errors.Is(err, ErrC2) {
		t.Errorf("Validate = %v, want C1 or C2 violation", err)
	}

	// A pure C2 case: dense block {0,1,2} (τ=2), sparse {3}, {4} with 4
	// beyond reach. Device 3 is adjacent to 0,1,2 -> C2.
	prev, err2 := space.StateFromPoints([][]float64{{0.1}, {0.15}, {0.2}, {0.3}, {0.9}})
	if err2 != nil {
		t.Fatal(err2)
	}
	pair, err2 := motion.NewPair(prev, prev.Clone())
	if err2 != nil {
		t.Fatal(err2)
	}
	err = Validate(pair, Partition{{0, 1, 2}, {3}, {4}}, []int{0, 1, 2, 3, 4}, 0.1, 2)
	if !errors.Is(err, ErrC2) {
		t.Errorf("Validate = %v, want ErrC2", err)
	}
}

func TestGreedyProducesPartition(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure2)
	p, err := Greedy(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Structural validity at minimum: blocks partition A_k into motions.
	seen := sets.NewBits(cfg.Pair.N())
	total := 0
	for _, b := range p {
		if !cfg.Pair.ConsistentMotion(b, cfg.R) {
			t.Errorf("block %v is not a motion", b)
		}
		for _, id := range b {
			if seen.Has(id) {
				t.Errorf("device %d appears twice", id)
			}
			seen.Add(id)
			total++
		}
	}
	if total != len(cfg.Abnormal) {
		t.Errorf("blocks cover %d of %d devices", total, len(cfg.Abnormal))
	}
}

func TestGreedyMatchesPaperChoices(t *testing.T) {
	t.Parallel()

	// On Figure 2, deterministic greedy (first device, first maximal
	// motion) starts from device 0 and must extract {0,1,2} first, like
	// the paper's walkthrough that picks device 1.
	cfg := mustFigure(t, paperfig.Figure2)
	p, err := Greedy(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Partition{{0, 1, 2}, {3}, {4, 5, 6, 7, 8}, {9}}.Canonical()
	if !p.Equal(want) {
		t.Errorf("greedy = %v, want %v", p, want)
	}
	if err := Validate(cfg.Pair, p, cfg.Abnormal, cfg.R, cfg.Tau); err != nil {
		t.Errorf("greedy partition invalid: %v", err)
	}
}

func TestGreedyEmptyAbnormal(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure2)
	if _, err := Greedy(cfg.Pair, nil, cfg.R, cfg.Tau, nil); !errors.Is(err, ErrEmptyAbnormal) {
		t.Errorf("Greedy(empty) = %v, want ErrEmptyAbnormal", err)
	}
	if _, err := Greedy(cfg.Pair, []int{0}, 0.5, cfg.Tau, nil); !errors.Is(err, motion.ErrRadius) {
		t.Errorf("Greedy(bad r) = %v, want ErrRadius", err)
	}
}

// TestGreedyCounterexample documents a reproduction finding: Algorithm 1
// as stated in the paper can emit a partition violating C2 when a sparse
// block is extracted before an overlapping dense one. Lemma 2's induction
// only checks devices still present when a block is extracted.
func TestGreedyCounterexample(t *testing.T) {
	t.Parallel()

	// Devices: a=0 at 0.3, x=1 at 0.1, c=2 at 0.45, d=3 at 0.5; r=0.1,
	// τ=1. Maximal motions: {a,x} and {a,c,d}. Extracting {a,x} first
	// leaves {c,d} dense, and a is adjacent to both c and d -> C2 fails.
	prev, err := space.StateFromPoints([][]float64{{0.3}, {0.1}, {0.45}, {0.5}})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := motion.NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	const r, tau = 0.1, 1
	abnormal := []int{0, 1, 2, 3}

	// Force the bad choice: seed such that greedy picks {0,1} for device
	// 0. We search a seed deterministically rather than relying on one.
	var invalid Partition
	for seed := int64(0); seed < 64; seed++ {
		p, err := Greedy(pair, abnormal, r, tau, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if Validate(pair, p, abnormal, r, tau) != nil {
			invalid = p
			break
		}
	}
	if invalid == nil {
		t.Skip("no seed reproduced the C2 violation; geometry changed?")
	}
	err = Validate(pair, invalid, abnormal, r, tau)
	if !errors.Is(err, ErrC2) {
		t.Errorf("counterexample validation = %v, want ErrC2", err)
	}

	// GreedyValidated repairs it.
	p, err := GreedyValidated(pair, abnormal, r, tau, stats.NewRNG(1), 50)
	if err != nil {
		t.Fatalf("GreedyValidated failed: %v", err)
	}
	if err := Validate(pair, p, abnormal, r, tau); err != nil {
		t.Errorf("validated partition still invalid: %v", err)
	}
}

// TestGreedyValidatedRandom checks on random configurations that
// GreedyValidated always lands on a valid anomaly partition.
func TestGreedyValidatedRandom(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(505)
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		pair := randomPairT(t, rng, n, 2, 0.25)
		const r, tau = 0.05, 2
		p, err := GreedyValidated(pair, allIdsN(n), r, tau, rng.Split(), 200)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(pair, p, allIdsN(n), r, tau); err != nil {
			t.Fatalf("trial %d: invalid partition %v: %v", trial, p, err)
		}
	}
}

func randomPairT(t testing.TB, rng *stats.RNG, n, d int, side float64) *motion.Pair {
	t.Helper()
	prev, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	prev.Uniform(func() float64 { return rng.Float64() * side })
	cur.Uniform(func() float64 { return rng.Float64() * side })
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func allIdsN(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestPartitionHelpers(t *testing.T) {
	t.Parallel()

	p := Partition{{3, 1}, {2}}
	p.Canonical()
	if !sets.EqualInts(p[0], []int{1, 3}) && !sets.EqualInts(p[0], []int{2}) {
		t.Errorf("Canonical() = %v", p)
	}
	q := Partition{{1, 3}, {2}}.Canonical()
	if !p.Equal(q) {
		t.Errorf("%v must equal %v", p, q)
	}
	if p.Equal(Partition{{1, 3}}) {
		t.Error("different partitions must not be equal")
	}
	if p.Equal(Partition{{1, 3}, {4}}) {
		t.Error("different blocks must not be equal")
	}
}
