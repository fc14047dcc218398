package partition

import (
	"errors"
	"fmt"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/paperfig"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

func TestEnumerateAllFigure3(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure3)
	all, err := EnumerateAll(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the two partitions from the impossibility proof.
	if len(all) != 2 {
		t.Fatalf("found %d partitions, want 2: %v", len(all), all)
	}
	for _, want := range paperfig.Figure3Partitions() {
		found := false
		for _, got := range all {
			if got.Equal(Partition(want).Canonical()) {
				found = true
			}
		}
		if !found {
			t.Errorf("paper partition %v not enumerated", want)
		}
	}
}

func TestEnumerateAllFigure5(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure5)
	all, err := EnumerateAll(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("found %d partitions, want 2: %v", len(all), all)
	}
	for _, want := range paperfig.Figure5Partitions() {
		found := false
		for _, got := range all {
			if got.Equal(Partition(want).Canonical()) {
				found = true
			}
		}
		if !found {
			t.Errorf("paper partition %v not enumerated", want)
		}
	}
}

func TestEnumerateAllValidates(t *testing.T) {
	t.Parallel()

	// Every enumerated partition must pass Validate, and every valid
	// partition produced by randomized greedy must be enumerated.
	rng := stats.NewRNG(808)
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(5)
		pair := randomPairT(t, rng, n, 2, 0.2)
		const r, tau = 0.06, 2
		all, err := EnumerateAll(pair, allIdsN(n), r, tau, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			t.Fatalf("trial %d: no anomaly partition found (Lemma 2 violated)", trial)
		}
		for _, p := range all {
			if err := Validate(pair, p, allIdsN(n), r, tau); err != nil {
				t.Fatalf("trial %d: enumerated partition %v invalid: %v", trial, p, err)
			}
		}
		for g := 0; g < 10; g++ {
			p, err := Greedy(pair, allIdsN(n), r, tau, rng.Split())
			if err != nil {
				t.Fatal(err)
			}
			if Validate(pair, p, allIdsN(n), r, tau) != nil {
				continue // the documented Algorithm 1 edge case
			}
			found := false
			for _, q := range all {
				if q.Equal(p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: valid greedy partition %v missing from enumeration %v", trial, p, all)
			}
		}
	}
}

func TestEnumerateBudget(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(3)
	pair := randomPairT(t, rng, 12, 2, 0.1)
	_, err := EnumerateAll(pair, allIdsN(12), 0.06, 2, 5)
	if !errors.Is(err, ErrSearchSpace) {
		t.Errorf("tiny budget error = %v, want ErrSearchSpace", err)
	}
	if err := ForEachPartition(pair, nil, 0.06, 2, 0, func(Partition) bool { return true }); !errors.Is(err, ErrEmptyAbnormal) {
		t.Errorf("empty abnormal error = %v", err)
	}
	if err := ForEachPartition(pair, allIdsN(3), 0.9, 2, 0, func(Partition) bool { return true }); !errors.Is(err, motion.ErrRadius) {
		t.Errorf("bad radius error = %v", err)
	}
}

func TestForEachPartitionEarlyStop(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure3)
	calls := 0
	err := ForEachPartition(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, 0, func(Partition) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("early stop made %d calls, want 1", calls)
	}
}

func TestOraclePaperFigures(t *testing.T) {
	t.Parallel()

	figs, err := paperfig.All()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range figs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Oracle(cfg.Pair, cfg.Abnormal, cfg.R, cfg.Tau, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sets.EqualInts(res.Massive, cfg.Massive) {
				t.Errorf("Massive = %v, want %v", res.Massive, cfg.Massive)
			}
			if !sets.EqualInts(res.Isolated, cfg.Isolated) {
				t.Errorf("Isolated = %v, want %v", res.Isolated, cfg.Isolated)
			}
			if !sets.EqualInts(res.Unresolved, cfg.Unresolved) {
				t.Errorf("Unresolved = %v, want %v", res.Unresolved, cfg.Unresolved)
			}
			if res.Partitions < 1 {
				t.Error("Lemma 2: at least one partition must exist")
			}
		})
	}
}

func TestOracleClassOf(t *testing.T) {
	t.Parallel()

	res := OracleResult{Massive: []int{1}, Isolated: []int{2}, Unresolved: []int{3}}
	tests := []struct {
		j    int
		want string
	}{{1, "M"}, {2, "I"}, {3, "U"}, {4, ""}}
	for _, tt := range tests {
		if got := res.ClassOf(tt.j); got != tt.want {
			t.Errorf("ClassOf(%d) = %q, want %q", tt.j, got, tt.want)
		}
	}
}

// TestOracleSingletons: with every device far apart, all anomalies are
// isolated and there is exactly one partition (all singletons).
func TestOracleSingletons(t *testing.T) {
	t.Parallel()

	coords := [][]float64{{0.1}, {0.4}, {0.7}, {0.95}}
	pair := pairFromCoords(t, coords)
	res, err := Oracle(pair, []int{0, 1, 2, 3}, 0.05, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Errorf("Partitions = %d, want 1", res.Partitions)
	}
	if !sets.EqualInts(res.Isolated, []int{0, 1, 2, 3}) {
		t.Errorf("Isolated = %v", res.Isolated)
	}
	if len(res.Massive) != 0 || len(res.Unresolved) != 0 {
		t.Errorf("unexpected massive/unresolved: %v %v", res.Massive, res.Unresolved)
	}
}

// TestOracleTauExtremes: with τ >= |A_k| no block can be dense, so every
// device is isolated.
func TestOracleTauExtremes(t *testing.T) {
	t.Parallel()

	cfg := mustFigure(t, paperfig.Figure3)
	res, err := Oracle(cfg.Pair, cfg.Abnormal, cfg.R, len(cfg.Abnormal), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Isolated) != len(cfg.Abnormal) {
		t.Errorf("with huge τ all devices must be isolated, got %+v", res)
	}
}

func pairFromCoords(t testing.TB, coords [][]float64) *motion.Pair {
	t.Helper()
	prev, err := space.StateFromPoints(coords)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := motion.NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// GreedyValidated runs Greedy until the result passes Validate, up to
// maxTries attempts (deterministic first try when rng is nil, then random
// retries). It returns ErrSearchSpace when no valid partition was found
// within the budget; Lemma 2 guarantees one exists, so a handful of tries
// almost always suffices.
func GreedyValidated(pair *motion.Pair, abnormal []int, r float64, tau int, rng *stats.RNG, maxTries int) (Partition, error) {
	if maxTries <= 0 {
		maxTries = 1
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	var lastErr error
	for try := 0; try < maxTries; try++ {
		p, err := Greedy(pair, abnormal, r, tau, rng)
		if err != nil {
			return nil, err
		}
		if err := Validate(pair, p, abnormal, r, tau); err == nil {
			return p, nil
		} else {
			lastErr = err
		}
	}
	return nil, fmt.Errorf("no valid partition in %d tries (last: %v): %w", maxTries, lastErr, ErrSearchSpace)
}

// EnumerateAll collects every anomaly partition of abnormal in
// deterministic order. Intended for tests and the oracle only.
func EnumerateAll(pair *motion.Pair, abnormal []int, r float64, tau int, budget int) ([]Partition, error) {
	var out []Partition
	err := ForEachPartition(pair, abnormal, r, tau, budget, func(p Partition) bool {
		cp := make(Partition, len(p))
		for i, b := range p {
			cp[i] = sets.CloneInts(b)
		}
		out = append(out, cp.Canonical())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
