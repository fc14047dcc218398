package core

import "fmt"

// Characterize classifies device j, running the paper's Algorithm 3 and,
// when Config.Exact is set and Theorem 6 is inconclusive, Algorithm 4/5.
// Theorems 5 and 6 are read off j's family, decided when its component
// was enumerated; only the exact search runs per device.
func (c *Characterizer) Characterize(j int) (Result, error) {
	lj, ok := c.graph.Local(j)
	if !ok {
		return Result{}, fmt.Errorf("device %d: %w", j, ErrNotAbnormal)
	}

	// Line 2-3 of Algorithm 3: maximal motions of j, then W̄_k(j).
	ent := c.familyOf(lj)
	f := ent.fam
	res := Result{Device: j, Dense: f.ids}
	res.Cost.MaximalMotions = ent.total
	res.Cost.DenseMotions = len(f.ids)

	// Theorem 5: no dense motion -> isolated.
	if len(f.ids) == 0 {
		res.Class = ClassIsolated
		res.Rule = RuleTheorem5
		return res, nil
	}

	// D_k(j) = J_k(j) ∪ L_k(j) holds j itself and its neighbours.
	res.J, res.L = f.j, f.l
	res.Cost.NeighborsScanned = len(f.j) + len(f.l) - 1

	// Theorem 6 (lines 17-18 of Algorithm 3), decided per family.
	if f.massive {
		res.Class = ClassMassive
		res.Rule = RuleTheorem6
		return res, nil
	}

	if !c.cfg.Exact {
		res.Class = ClassUnresolved
		res.Rule = RuleNone
		return res, nil
	}

	// Algorithms 4/5: exhaustive collection search deciding between
	// Theorem 7 (massive) and Corollary 8 (unresolved).
	violating, tested, err := c.searchViolating(j, f.ids, f.l, c.blockerMotions(f))
	res.Cost.CollectionsTested = tested
	if err != nil {
		return res, err
	}
	if violating {
		res.Class = ClassUnresolved
		res.Rule = RuleCorollary8
	} else {
		res.Class = ClassMassive
		res.Rule = RuleTheorem7
	}
	return res, nil
}

// CharacterizeAll classifies every abnormal device, in id order.
func (c *Characterizer) CharacterizeAll() ([]Result, error) {
	out := make([]Result, 0, len(c.abnormal))
	for _, j := range c.abnormal {
		res, err := c.Characterize(j)
		if err != nil {
			return nil, fmt.Errorf("characterizing device %d: %w", j, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Sets groups results into the M_k / I_k / U_k decomposition.
type Sets struct {
	Massive    []int
	Isolated   []int
	Unresolved []int
}

// Decompose runs CharacterizeAll and folds the verdicts into sets.
func (c *Characterizer) Decompose() (Sets, error) {
	results, err := c.CharacterizeAll()
	if err != nil {
		return Sets{}, err
	}
	var s Sets
	for _, r := range results {
		switch r.Class {
		case ClassMassive:
			s.Massive = append(s.Massive, r.Device)
		case ClassIsolated:
			s.Isolated = append(s.Isolated, r.Device)
		default:
			s.Unresolved = append(s.Unresolved, r.Device)
		}
	}
	return s, nil
}
