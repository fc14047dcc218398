package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/motion"
	"anomalia/internal/sets"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// This file pins Advance: a Directory advanced across a window sequence
// must be indistinguishable — index slabs, shard annotations, every View
// and its Stats, whole DecideAll batches — from a Directory built fresh
// by NewDirectory on the same window. Sequences cover uniform,
// clustered, boundary-snapped and coincident movement, id churn from 0%
// to 100%, and scrambled old states (the Monitor recycles its snapshot
// buffers, so nothing may read the previous window's positions).

// assertDirsEqual compares the windows of two directories piece by
// piece, then behaviourally through View.
func assertDirsEqual(t *testing.T, label string, got, want *Directory) {
	t.Helper()
	if !sets.EqualInts(got.abnormal, want.abnormal) {
		t.Fatalf("%s: abnormal %v, want %v", label, got.abnormal, want.abnormal)
	}
	gc, wc := got.index.SortedCells(), want.index.SortedCells()
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d cells, want %d", label, len(gc), len(wc))
	}
	for ci := range wc {
		if !slices.Equal(gc[ci].Coords, wc[ci].Coords) {
			t.Fatalf("%s: cell %d coords %v, want %v", label, ci, gc[ci].Coords, wc[ci].Coords)
		}
		if !slices.Equal(gc[ci].Ids, wc[ci].Ids) {
			t.Fatalf("%s: cell %d ids %v, want %v", label, ci, gc[ci].Ids, wc[ci].Ids)
		}
	}
	if !slices.Equal(got.cellShard, want.cellShard) {
		t.Fatalf("%s: shard annotations differ", label)
	}
	if !slices.Equal(got.cellOf, want.cellOf) {
		t.Fatalf("%s: id->cell records differ", label)
	}
	for _, j := range want.abnormal {
		gv, gst, gerr := got.View(j)
		wv, wst, werr := want.View(j)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: View(%d) errors %v / %v", label, j, gerr, werr)
		}
		if !sets.EqualInts(gv, wv) {
			t.Fatalf("%s: View(%d) = %v, want %v", label, j, gv, wv)
		}
		if gst != wst {
			t.Fatalf("%s: View(%d) stats %+v, want %+v", label, j, gst, wst)
		}
	}
}

// windowSeq drives an evolving window sequence through one directory.
type windowSeq struct {
	rng       *stats.RNG
	n         int
	r         float64
	mode      string
	prev, cur *space.State
	abn       []int
	dir       *Directory
}

func newWindowSeq(t *testing.T, rng *stats.RNG, n int, r float64, mode string) *windowSeq {
	t.Helper()
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev.Uniform(rng.Float64)
	s := &windowSeq{rng: rng, n: n, r: r, mode: mode, prev: prev, cur: prev.Clone()}
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.3 {
			s.abn = append(s.abn, j)
		}
	}
	pair, err := motion.NewPair(s.prev, s.cur)
	if err != nil {
		t.Fatal(err)
	}
	s.dir, err = NewDirectory(pair, s.abn, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// move gives device j a new position according to the sequence's mode.
func (s *windowSeq) move(t *testing.T, st *space.State, j int) {
	t.Helper()
	side := 2 * s.r
	if side <= 0 {
		side = 1
	}
	pt := make(space.Point, 2)
	switch s.mode {
	case "clustered":
		anchor := st.At(s.rng.Intn(s.n))
		for i := range pt {
			pt[i] = math.Min(1, math.Max(0, anchor[i]+(s.rng.Float64()-0.5)*4*side))
		}
	case "boundary":
		res := int(math.Ceil(1 / side))
		for i := range pt {
			pt[i] = math.Min(1, float64(s.rng.Intn(res+1))*side)
		}
	case "coincident":
		copy(pt, st.At(s.rng.Intn(s.n)))
	default:
		for i := range pt {
			pt[i] = s.rng.Float64()
		}
	}
	if err := st.Set(j, pt); err != nil {
		t.Fatal(err)
	}
}

// advance rolls the sequence one window forward — moveFrac of the
// population moves, churnFrac of the abnormal set swaps — advances the
// directory, and returns the advance stats together with a freshly
// built reference directory for the same window.
func (s *windowSeq) advance(t *testing.T, moveFrac, churnFrac float64) (AdvanceStats, *Directory) {
	t.Helper()
	old := s.prev
	s.prev = s.cur
	s.cur = s.prev.Clone()
	for k := 0; k < int(moveFrac*float64(s.n)); k++ {
		s.move(t, s.cur, s.rng.Intn(s.n))
	}

	abn := slices.Clone(s.abn)
	churn := int(churnFrac * float64(len(abn)))
	for k := 0; k < churn && len(abn) > 1; k++ {
		p := s.rng.Intn(len(abn))
		abn = slices.Delete(abn, p, p+1)
	}
	for k := 0; k < churn; k++ {
		j := s.rng.Intn(s.n)
		if p, ok := slices.BinarySearch(abn, j); !ok {
			abn = slices.Insert(abn, p, j)
		}
	}
	s.abn = abn

	pair, err := motion.NewPair(s.prev, s.cur)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.dir.Advance(pair, abn, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDirectory(pair, abn, s.r)
	if err != nil {
		t.Fatal(err)
	}
	// The state displaced by this window is dead: scramble it, like the
	// Monitor recycling its snapshot buffer. Nothing in the advanced
	// directory may depend on it.
	old.Uniform(s.rng.Float64)
	return st, fresh
}

// TestAdvanceMatchesFreshDirectory: across movement distributions and
// churn fractions including 0% and 100%, the advanced directory must
// match a fresh build cell for cell, view for view, stat for stat.
func TestAdvanceMatchesFreshDirectory(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(20260730)
	churns := []struct{ move, churn float64 }{
		{0, 0}, {0.02, 0}, {0, 0.05}, {0.05, 0.02}, {0.2, 0.1}, {1, 1},
	}
	for _, mode := range []string{"uniform", "clustered", "boundary", "coincident"} {
		s := newWindowSeq(t, rng, 300, 0.03, mode)
		for step, ch := range churns {
			st, fresh := s.advance(t, ch.move, ch.churn)
			label := fmt.Sprintf("%s step %d (move=%v churn=%v rebuilt=%v)",
				mode, step, ch.move, ch.churn, st.Rebuilt)
			assertDirsEqual(t, label, s.dir, fresh)
		}
	}
}

// TestAdvanceDecideAllParity: whole decision batches over an advanced
// directory must equal the fresh build's — verdicts, rules, per-device
// bills and summed totals.
func TestAdvanceDecideAllParity(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31415)
	coreCfg := core.Config{R: 0.03, Tau: 3, Exact: true}
	s := newWindowSeq(t, rng, 250, 0.03, "clustered")
	for step := 0; step < 4; step++ {
		_, fresh := s.advance(t, 0.1, 0.05)
		got, gotTotal, err := DecideAll(s.dir, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantTotal, err := DecideAll(fresh, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotTotal != wantTotal {
			t.Fatalf("step %d: total %+v, want %+v", step, gotTotal, wantTotal)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d decisions, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i].Result.Device != want[i].Result.Device ||
				got[i].Result.Class != want[i].Result.Class ||
				got[i].Result.Rule != want[i].Result.Rule ||
				got[i].Stats != want[i].Stats {
				t.Fatalf("step %d decision %d: %+v != %+v", step, i, got[i], want[i])
			}
		}
	}
}

// TestAdvanceDegenerateRadius: the r = 0 single-cell geometry advances
// too — membership churn only, views stay exactly-coincident devices.
func TestAdvanceDegenerateRadius(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(606)
	s := newWindowSeq(t, rng, 60, 0, "coincident")
	for step := 0; step < 3; step++ {
		_, fresh := s.advance(t, 0.2, 0.2)
		assertDirsEqual(t, fmt.Sprintf("r=0 step %d", step), s.dir, fresh)
	}
}

// TestAdvanceErrors: invalid windows must reject without disturbing the
// served window.
func TestAdvanceErrors(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(123)
	s := newWindowSeq(t, rng, 50, 0.06, "uniform")
	before := *s.dir
	if _, err := s.dir.Advance(nil, []int{1}, nil); err == nil {
		t.Error("nil pair must fail")
	}
	pair := s.dir.pair
	if _, err := s.dir.Advance(pair, []int{-1}, nil); err == nil {
		t.Error("negative id must fail")
	}
	if _, err := s.dir.Advance(pair, []int{s.n + 5}, nil); err == nil {
		t.Error("out-of-range id must fail")
	}
	if s.dir.pair != before.pair || s.dir.index != before.index ||
		!slices.Equal(s.dir.abnormal, before.abnormal) || s.dir.r != before.r {
		t.Error("failed Advance must leave the current window untouched")
	}
	// A failed advance must leave the directory fully serviceable.
	if _, _, err := s.dir.View(s.dir.abnormal[0]); err != nil {
		t.Errorf("View after failed Advance: %v", err)
	}
}
