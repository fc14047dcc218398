package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"anomalia/internal/motion"
	"anomalia/internal/paperfig"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// perNeighbourCharacterizeAll is a test-only transcription of the
// per-device decision procedure that families replaced: every device
// builds its own D_k, probes each neighbour's dense motions for the J/L
// split, and tests Theorem 6 on its own J. W̄_k comes from the per-device
// enumeration (MaximalMotionsContainingIn), and the exact search's
// blocker family is assembled with a content-keyed dedupe. It mirrors
// CharacterizeAll's contract, first error included.
func perNeighbourCharacterizeAll(c *Characterizer) ([]Result, error) {
	g, cs, tau := c.graph, c.comps, c.cfg.Tau
	type entry struct {
		ids   [][]int
		bits  []*sets.Bits
		total int
	}
	memo := map[int]entry{}
	denseOf := func(l int) entry {
		if e, ok := memo[l]; ok {
			return e
		}
		ids, bits := g.MaximalMotionsContainingIn(l, cs)
		e := entry{total: len(ids)}
		for i, m := range ids {
			if len(m) > tau {
				e.ids = append(e.ids, m)
				e.bits = append(e.bits, bits[i])
			}
		}
		memo[l] = e
		return e
	}

	var out []Result
	for _, j := range c.abnormal {
		ent := denseOf(j)
		res := Result{Device: j, Dense: ent.ids}
		res.Cost.MaximalMotions = ent.total
		res.Cost.DenseMotions = len(ent.ids)
		if len(ent.ids) == 0 {
			res.Class, res.Rule = ClassIsolated, RuleTheorem5
			out = append(out, res)
			continue
		}

		lj, _ := g.Local(j)
		comp := cs.Of(lj)
		verts := cs.Verts(comp)
		rj := cs.Rank(lj)
		dkB, jB, lB := sets.NewBits(len(verts)), sets.NewBits(len(verts)), sets.NewBits(len(verts))
		for _, mo := range ent.bits {
			dkB.Or(mo)
		}
		dkB.ForEach(func(ri int) bool {
			l := g.IDOf(int(verts[ri]))
			if l != j {
				res.Cost.NeighborsScanned++
			}
			inL := false
			for _, mo := range denseOf(l).bits {
				if !mo.Has(rj) {
					inL = true
					break
				}
			}
			if inL {
				lB.Add(ri)
			} else {
				jB.Add(ri)
			}
			return true
		})
		res.J = cs.AppendIds(jB, comp, make([]int, 0, jB.Len()))
		res.L = cs.AppendIds(lB, comp, make([]int, 0, lB.Len()))

		theorem6 := false
		for _, mo := range ent.bits {
			if mo.IntersectionLen(jB) > tau {
				theorem6 = true
				break
			}
		}
		switch {
		case theorem6:
			res.Class, res.Rule = ClassMassive, RuleTheorem6
		case !c.cfg.Exact:
			res.Class, res.Rule = ClassUnresolved, RuleNone
		default:
			seen := map[string]bool{}
			var ms [][]int
			for _, l := range res.L {
				for _, m := range denseOf(l).ids {
					key := fmt.Sprint(m)
					if sets.ContainsInt(m, j) || seen[key] {
						continue
					}
					seen[key] = true
					ms = append(ms, m)
				}
			}
			sets.SortSets(ms)
			violating, tested, err := c.searchViolating(j, cs.AppendIds(dkB, comp, nil), res.L, ms)
			if err != nil {
				return nil, fmt.Errorf("characterizing device %d: %w", j, err)
			}
			res.Cost.CollectionsTested = tested
			if violating {
				res.Class, res.Rule = ClassUnresolved, RuleCorollary8
			} else {
				res.Class, res.Rule = ClassMassive, RuleTheorem7
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// checkAgainstPerNeighbour requires CharacterizeAll on a fresh
// characterizer to be deeply equal to the per-neighbour transcription
// run on another: class, rule, J, L, Dense and every cost counter.
func checkAgainstPerNeighbour(t *testing.T, label string, pair *motion.Pair, ids []int, cfg Config) []Result {
	t.Helper()
	g := motion.NewGraph(pair, ids, cfg.R)
	want, wantErr := perNeighbourCharacterizeAll(newCharacterizer(pair, ids, cfg, g))
	got, gotErr := newCharacterizer(pair, ids, cfg, g).CharacterizeAll()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, per-neighbour error %v", label, gotErr, wantErr)
	}
	if reflect.DeepEqual(got, want) {
		return got
	}
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: device %d diverged:\nfamilies      %+v\nper-neighbour %+v",
				label, want[i].Device, got[i], want[i])
		}
	}
	t.Fatalf("%s: %d results, per-neighbour %d", label, len(got), len(want))
	return nil
}

// TestFamiliesMatchPerNeighbourSplit pins the family-interned
// characterizer to the per-neighbour transcription across placement
// families, the paper's Figure 4 and 5 fixtures and an all-abnormal
// fleet, in cheap and exact mode.
func TestFamiliesMatchPerNeighbourSplit(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(1306)
	rules := map[Rule]int{}
	check := func(label string, pair *motion.Pair, ids []int, cfg Config) {
		for _, res := range checkAgainstPerNeighbour(t, label, pair, ids, cfg) {
			rules[res.Rule]++
		}
	}
	for _, exact := range []bool{false, true} {
		for _, kind := range []string{"clustered", "uniform", "coincident"} {
			n := 90 + rng.Intn(60)
			r := 0.015 + 0.02*rng.Float64()
			pair := parityPair(t, rng, kind, n, r)
			cfg := Config{R: r, Tau: 2, Exact: exact}
			label := fmt.Sprintf("%s/exact=%v", kind, exact)
			check(label+"/all-abnormal", pair, allIds(n), cfg)
			check(label+"/subset", pair, subsetIds(rng, n, 0.3), cfg)
		}
		for name, build := range map[string]func() (*paperfig.Config, error){
			"figure4a": paperfig.Figure4a,
			"figure4b": paperfig.Figure4b,
			"figure5":  paperfig.Figure5,
		} {
			fig := mustFigure(t, build)
			cfg := Config{R: fig.R, Tau: fig.Tau, Exact: exact}
			check(fmt.Sprintf("%s/exact=%v", name, exact), fig.Pair, fig.Abnormal, cfg)
		}
		// Crowded windows, where blocker motions recur across the
		// families of several L_k(j) members.
		for trial := 0; trial < 40; trial++ {
			n := 6 + rng.Intn(10)
			pair := randomPair(t, rng, n, 1+rng.Intn(2), 0.1+0.2*rng.Float64())
			cfg := Config{R: 0.06, Tau: 1 + rng.Intn(2), Exact: exact}
			check(fmt.Sprintf("crowded-%d/exact=%v", trial, exact), pair, allIds(n), cfg)
		}
		pair, ids := allAbnormalWindow(t, 2000)
		cfg := Config{R: allAbnormalR, Tau: allAbnormalTau, Exact: exact}
		check(fmt.Sprintf("all-abnormal-2k/exact=%v", exact), pair, ids, cfg)
	}
	for _, rule := range []Rule{RuleNone, RuleTheorem5, RuleTheorem6, RuleCorollary8, RuleTheorem7} {
		if rules[rule] == 0 {
			t.Errorf("no fixture decided a device by %v (verdicts by rule: %v)", rule, rules)
		}
	}
}

// TestFamilyLemma checks the identity families rest on: ℓ ∈ J_k(j) iff
// W̄_k(ℓ) ⊆ W̄_k(j), for every device j and every ℓ ∈ D_k(j), with W̄_k
// enumerated independently per device. J_k and L_k must also partition
// D_k.
func TestFamilyLemma(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(4141)
	var inJ, inL int
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		const r = 0.05
		tau := 1 + rng.Intn(3)
		var pair *motion.Pair
		if trial%2 == 0 {
			pair = randomPair(t, rng, n, 2, 0.2+0.3*rng.Float64())
		} else {
			pair = parityPair(t, rng, "clustered", n, r)
		}
		ids := allIds(n)
		c, err := New(pair, ids, Config{R: r, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		g := motion.NewGraph(pair, ids, r)
		cs := g.Components()
		dense := func(x int) [][]int {
			all, _ := g.MaximalMotionsContainingIn(x, cs)
			return motion.DenseOf(all, tau)
		}
		has := func(family [][]int, m []int) bool {
			for _, f := range family {
				if sets.EqualInts(f, m) {
					return true
				}
			}
			return false
		}
		for _, j := range ids {
			res, err := c.Characterize(j)
			if err != nil {
				t.Fatal(err)
			}
			wj := dense(j)
			var dk []int
			for _, m := range wj {
				dk = sets.UnionInts(dk, m)
			}
			if !sets.EqualInts(sets.UnionInts(res.J, res.L), dk) || len(sets.IntersectInts(res.J, res.L)) != 0 {
				t.Fatalf("trial %d device %d: J=%v L=%v do not partition D_k=%v", trial, j, res.J, res.L, dk)
			}
			for _, l := range dk {
				subset := true
				for _, m := range dense(l) {
					subset = subset && has(wj, m)
				}
				in := sets.ContainsInt(res.J, l)
				if in != subset {
					t.Fatalf("trial %d device %d: ℓ=%d in J is %v, W̄(ℓ) ⊆ W̄(j) is %v", trial, j, l, in, subset)
				}
				if in {
					inJ++
				} else {
					inL++
				}
			}
		}
	}
	if inJ == 0 || inL == 0 {
		t.Fatalf("fixtures put %d neighbours in J and %d in L; both sides need cover", inJ, inL)
	}
}

// massClusterWindow places clusters of size devices, each an R2 mass
// event (inside an r/2 box, translating by one shift, so one clique),
// at ids starting from the given offsets, plus lone devices that move
// alone. Every other device of the n-device population sits at a
// uniform position and stays normal. It returns the pair and the
// sorted abnormal set.
func massClusterWindow(tb testing.TB, seed int64, n int, r float64, starts []int, size int, lone []int) (*motion.Pair, []int) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	prev, err := space.NewState(n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	prev.Uniform(rng.Float64)
	cur.Uniform(rng.Float64)
	set := func(i int, x, y float64) {
		if err := prev.Set(i, space.Point{x, y}); err != nil {
			tb.Fatal(err)
		}
	}
	move := func(i int, x, y float64) {
		if err := cur.Set(i, space.Point{x, y}); err != nil {
			tb.Fatal(err)
		}
	}
	var ids []int
	for _, start := range starts {
		cx, cy := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		sx, sy := (rng.Float64()-0.5)*r, (rng.Float64()-0.5)*r
		for i := start; i < start+size; i++ {
			ox, oy := (rng.Float64()-0.5)*r/2, (rng.Float64()-0.5)*r/2
			set(i, cx+ox, cy+oy)
			move(i, cx+ox+sx, cy+oy+sy)
			ids = append(ids, i)
		}
	}
	for _, i := range lone {
		x, y := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		set(i, x, y)
		move(i, x+(rng.Float64()-0.5)*r, y+(rng.Float64()-0.5)*r)
		ids = append(ids, i)
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		tb.Fatal(err)
	}
	return pair, sets.Canon(ids)
}

// TestFamilySharingUnderParallel runs the parallel pass on a window
// whose mass-event component is larger than the per-task target, so
// several workers read one family at once (run it under -race), and
// requires it to equal the serial pass. It also pins the read-only
// sharing contract: members of one family get the very same Dense, J
// and L slices.
func TestFamilySharingUnderParallel(t *testing.T) {
	t.Parallel()

	const r = 0.01
	pair, ids := massClusterWindow(t, 8, 1000, r, []int{0, 500}, 300, []int{350, 420, 460, 990})
	cfg := Config{R: r, Tau: 3, Exact: true}
	g := motion.NewGraph(pair, ids, cfg.R)

	par := newCharacterizer(pair, ids, cfg, g)
	const workers = 4
	lo := par.comps.Offset(par.comps.Of(0))
	hi := lo + par.comps.Size(par.comps.Of(0))
	if hi-lo != 300 {
		t.Fatalf("cluster component has %d members, want 300", hi-lo)
	}
	split := 0
	for _, rg := range par.componentRanges(workers) {
		if rg[0] >= lo && rg[1] <= hi {
			split++
		}
	}
	if split < 2 {
		t.Fatalf("cluster component spans %d task ranges, want several", split)
	}
	got, err := par.CharacterizeAllParallel(workers)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newCharacterizer(pair, ids, cfg, g).CharacterizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel results diverged from the serial pass")
	}

	sameHeader := func(a, b []int) bool {
		return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
	}
	a, b := got[0], got[299]
	if a.Class != ClassMassive || len(a.J) != 300 {
		t.Fatalf("cluster device: %v by %v with |J| = %d, want massive with |J| = 300", a.Class, a.Rule, len(a.J))
	}
	if !sameHeader(a.J, b.J) || !sameHeader(a.L, b.L) ||
		unsafe.SliceData(a.Dense) != unsafe.SliceData(b.Dense) || len(a.Dense) != len(b.Dense) {
		t.Error("members of one family do not share their J, L and Dense slices")
	}
	if other := got[sort.SearchInts(ids, 500)]; other.Class != ClassMassive || sameHeader(a.J, other.J) {
		t.Errorf("device %d of another cluster shares the first cluster's J", other.Device)
	}
}
