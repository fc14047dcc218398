package space

import (
	"errors"
	"math"
	"slices"
	"testing"

	"anomalia/internal/stats"
)

func TestNewState(t *testing.T) {
	t.Parallel()

	s, err := NewState(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	for j := 0; j < 5; j++ {
		p := s.At(j)
		if len(p) != 2 || p[0] != 0 || p[1] != 0 {
			t.Errorf("device %d not at origin: %v", j, p)
		}
	}
}

func TestNewStateValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewState(5, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("d=0 error = %v, want ErrDimension", err)
	}
	if _, err := NewState(5, MaxDim+1); !errors.Is(err, ErrDimension) {
		t.Errorf("d too large error = %v, want ErrDimension", err)
	}
	if _, err := NewState(-1, 2); !errors.Is(err, ErrIndex) {
		t.Errorf("n<0 error = %v, want ErrIndex", err)
	}
	if s, err := NewState(0, 1); err != nil || s.Len() != 0 {
		t.Errorf("empty state must be allowed: %v", err)
	}
}

func TestStateFromPoints(t *testing.T) {
	t.Parallel()

	s, err := StateFromPoints([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1)[0] != 0.3 {
		t.Errorf("At(1) = %v", s.At(1))
	}
	if _, err := StateFromPoints(nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := StateFromPoints([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged input error = %v", err)
	}

	// The state must own its memory.
	raw := [][]float64{{0.5}}
	s2, err := StateFromPoints(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[0][0] = 0.9
	if s2.At(0)[0] != 0.5 {
		t.Error("StateFromPoints must copy input")
	}
}

func TestStateSet(t *testing.T) {
	t.Parallel()

	s, err := NewState(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, Point{0.5, 1.7}); err != nil {
		t.Fatal(err)
	}
	if got := s.At(0); got[0] != 0.5 || got[1] != 1 {
		t.Errorf("Set must clamp: %v", got)
	}
	if err := s.Set(5, Point{0, 0}); !errors.Is(err, ErrIndex) {
		t.Errorf("out-of-range Set error = %v", err)
	}
	if err := s.Set(0, Point{0}); !errors.Is(err, ErrDimension) {
		t.Errorf("dim-mismatch Set error = %v", err)
	}
}

func TestStateCloneIndependent(t *testing.T) {
	t.Parallel()

	s, err := StateFromPoints([][]float64{{0.1, 0.1}, {0.9, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Set(0, Point{0.7, 0.7}); err != nil {
		t.Fatal(err)
	}
	if s.At(0)[0] != 0.1 {
		t.Error("Clone must be independent")
	}
	if c.Dist(0, 1) >= s.Dist(0, 1) {
		t.Error("clone distances must reflect the clone's positions")
	}
}

func TestStateUniform(t *testing.T) {
	t.Parallel()

	s, err := NewState(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(1)
	s.Uniform(r.Float64)
	var sum float64
	for j := 0; j < s.Len(); j++ {
		p := s.At(j)
		if !p.InUnitCube() {
			t.Fatalf("device %d outside unit cube: %v", j, p)
		}
		sum += p[0]
	}
	mean := sum / float64(s.Len())
	if mean < 0.4 || mean > 0.6 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestAtClone(t *testing.T) {
	t.Parallel()

	s, err := StateFromPoints([][]float64{{0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	p := s.AtClone(0)
	p[0] = 0.99
	if s.At(0)[0] != 0.3 {
		t.Error("AtClone must copy")
	}
}

// TestStateRejectsNonFinite: NaN and ±Inf coordinates must be refused by
// name — Clamp would silently rewrite NaN to 0 and an interval test
// cannot see it — and a refused Set must leave the position untouched.
func TestStateRejectsNonFinite(t *testing.T) {
	t.Parallel()

	nan := math.NaN()
	for _, bad := range []Point{{nan, 0.5}, {0.5, nan}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		s, err := NewState(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Set(1, Point{0.25, 0.75}); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(1, bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Set(%v) error = %v, want ErrNonFinite", bad, err)
		}
		if got := s.At(1); got[0] != 0.25 || got[1] != 0.75 {
			t.Errorf("rejected Set mutated position to %v", got)
		}
		if _, err := StateFromPoints([][]float64{{0.1, 0.2}, bad}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("StateFromPoints(%v) error = %v, want ErrNonFinite", bad, err)
		}
	}
}

// TestStateFromFlat: the state adopts the slab, clamps it in place, and
// rejects a ragged slab, a bad dimension and non-finite coordinates.
func TestStateFromFlat(t *testing.T) {
	coords := []float64{0.2, 1.3, -0.1, 0.5, 0.7, 0.8}
	s, err := StateFromFlat(2, coords)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 || &s.At(0)[0] != &coords[0] {
		t.Fatalf("state %d×%d does not adopt the slab", s.Len(), s.Dim())
	}
	if want := []float64{0.2, 1, 0, 0.5, 0.7, 0.8}; !slices.Equal(coords, want) {
		t.Fatalf("coords %v, want %v", coords, want)
	}
	for _, tc := range []struct {
		d      int
		coords []float64
		want   error
	}{
		{2, []float64{0.1, 0.2, 0.3}, ErrDimension},
		{0, nil, ErrDimension},
		{MaxDim + 1, nil, ErrDimension},
		{2, []float64{0.1, math.NaN()}, ErrNonFinite},
		{1, []float64{math.Inf(-1)}, ErrNonFinite},
	} {
		if _, err := StateFromFlat(tc.d, tc.coords); !errors.Is(err, tc.want) {
			t.Errorf("d=%d %v: err %v, want %v", tc.d, tc.coords, err, tc.want)
		}
	}
}
