package partition

import (
	"fmt"

	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/stats"
)

// Greedy runs the paper's Algorithm 1: repeatedly take a device j from the
// remaining abnormal set, extract one maximal r-consistent motion of the
// remaining set containing j, and emit it as a block. rng drives both the
// choice of j and the choice among j's maximal motions; a nil rng takes
// the deterministic first choice everywhere.
//
// Note (reproduction finding): Lemma 2 claims the result is always an
// anomaly partition, but its induction only rules out extensions of a
// dense block by devices still present when the block was extracted. A
// sparse block extracted *before* a dense one can violate C2 (see
// TestGreedyCounterexample); the tests' GreedyValidated retries with
// fresh randomness until Validate accepts.
func Greedy(pair *motion.Pair, abnormal []int, r float64, tau int, rng *stats.RNG) (Partition, error) {
	_ = tau // Algorithm 1 itself never consults τ; kept for symmetry.
	remaining := sets.Canon(sets.CloneInts(abnormal))
	if len(remaining) == 0 {
		return nil, ErrEmptyAbnormal
	}
	if err := motion.ValidateRadius(r); err != nil {
		return nil, err
	}
	var out Partition
	for len(remaining) > 0 {
		j := remaining[0]
		if rng != nil {
			j = remaining[rng.Intn(len(remaining))]
		}
		g := motion.NewGraph(pair, remaining, r)
		fam := g.MaximalMotionsContaining(j)
		if len(fam) == 0 {
			// Cannot happen: {j} is always a motion, so some maximal
			// motion contains j.
			return nil, fmt.Errorf("device %d has no maximal motion: %w", j, ErrNotMotion)
		}
		block := fam[0]
		if rng != nil {
			block = fam[rng.Intn(len(fam))]
		}
		out = append(out, sets.CloneInts(block))
		remaining = sets.DiffInts(remaining, block)
	}
	return out.Canonical(), nil
}
