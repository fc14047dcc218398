package space

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrIndex is returned for device indices outside [0, n).
var ErrIndex = errors.New("space: device index out of range")

// ErrNonFinite is returned when a coordinate is NaN or ±Inf. Interval
// tests cannot catch NaN (v < 0 || v > 1 is false for it) and Clamp
// would silently rewrite it to 0, so state mutation rejects non-finite
// coordinates by name before they can poison downstream geometry.
var ErrNonFinite = errors.New("space: non-finite coordinate")

// State is the system state S_k of Section III-A: the positions of n
// devices in E at one discrete time. Device identifiers are 0-based
// indices (the paper uses 1..n). Positions live in one flat row-major
// slab — device j owns coords[j*dim : (j+1)*dim] — so a state carries
// no per-device slice headers: n*d floats and nothing for the GC to
// scan.
type State struct {
	dim    int
	n      int
	coords []float64
}

// NewState returns a state for n devices in d dimensions with all devices
// at the origin.
func NewState(n, d int) (*State, error) {
	if d < MinDim || d > MaxDim {
		return nil, fmt.Errorf("d = %d: %w", d, ErrDimension)
	}
	if n < 0 {
		return nil, fmt.Errorf("n = %d: %w", n, ErrIndex)
	}
	return &State{dim: d, n: n, coords: make([]float64, n*d)}, nil
}

// StateFromPoints builds a state from raw coordinates, copying them. All
// rows must share the same dimension.
func StateFromPoints(coords [][]float64) (*State, error) {
	if len(coords) == 0 {
		return nil, fmt.Errorf("empty state: %w", ErrDimension)
	}
	d := len(coords[0])
	s, err := NewState(len(coords), d)
	if err != nil {
		return nil, err
	}
	for i, row := range coords {
		if len(row) != d {
			return nil, fmt.Errorf("device %d has %d coords, want %d: %w", i, len(row), d, ErrDimension)
		}
		for c, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("device %d coordinate %d: %v: %w", i, c, x, ErrNonFinite)
			}
		}
		copy(s.At(i), row)
	}
	return s, nil
}

// StateFromFlat builds a state of len(coords)/d devices over coords,
// row-major, without copying them: the state owns the slice from here
// on. Every coordinate must be finite (ErrNonFinite); each is clamped
// into [0,1] in place, as Set clamps it.
func StateFromFlat(d int, coords []float64) (*State, error) {
	if d < MinDim || d > MaxDim || len(coords)%d != 0 {
		return nil, fmt.Errorf("%d coords in d = %d: %w", len(coords), d, ErrDimension)
	}
	for i, x := range coords {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("device %d coordinate %d: %v: %w", i/d, i%d, x, ErrNonFinite)
		}
	}
	Point(coords).Clamp()
	return &State{dim: d, n: len(coords) / d, coords: coords}, nil
}

// Adopt points s at coords, len(coords)/d devices row-major, without
// copying or checking them: s aliases coords from here on, and the
// caller vouches that d is a valid dimension and every coordinate is
// finite and in [0,1]. It lets one State header be pointed at a
// recycled slab window after window.
func (s *State) Adopt(d int, coords []float64) {
	*s = State{dim: d, n: len(coords) / d, coords: coords}
}

// Len returns the number of devices n.
func (s *State) Len() int { return s.n }

// Dim returns the dimension d of the QoS space.
func (s *State) Dim() int { return s.dim }

// At returns the position of device j. The returned slice aliases the
// state, and its capacity is capped at d so an append can never spill
// into the next device; treat it as read-only or use AtClone.
func (s *State) At(j int) Point {
	lo, hi := j*s.dim, (j+1)*s.dim
	return s.coords[lo:hi:hi]
}

// Span returns the positions of devices [lo, hi) as one row-major
// slice of (hi-lo)*d coordinates: device lo+i owns span[i*d : (i+1)*d].
// Like At, it aliases the state and its capacity is capped, so an
// append can never spill into device hi.
func (s *State) Span(lo, hi int) []float64 {
	a, b := lo*s.dim, hi*s.dim
	return s.coords[a:b:b]
}

// AtClone returns an independent copy of the position of device j.
func (s *State) AtClone(j int) Point { return s.At(j).Clone() }

// Set overwrites the position of device j, clamping into [0,1]^d.
// Non-finite coordinates are rejected (ErrNonFinite) with the state
// untouched.
func (s *State) Set(j int, p Point) error {
	if j < 0 || j >= s.n {
		return fmt.Errorf("device %d of %d: %w", j, s.n, ErrIndex)
	}
	if len(p) != s.dim {
		return fmt.Errorf("point dim %d, state dim %d: %w", len(p), s.dim, ErrDimension)
	}
	for c, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("device %d coordinate %d: %v: %w", j, c, x, ErrNonFinite)
		}
	}
	row := s.At(j)
	copy(row, p)
	row.Clamp()
	return nil
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	return &State{dim: s.dim, n: s.n, coords: slices.Clone(s.coords)}
}

// Dist returns the uniform-norm distance between devices i and j.
func (s *State) Dist(i, j int) float64 { return Dist(s.At(i), s.At(j)) }

// Uniform fills the state with positions drawn uniformly from [0,1]^d
// using the given source of uniform [0,1) samples (the initial
// distribution S_0 of Section VII-A), device by device.
func (s *State) Uniform(next func() float64) {
	for i := range s.coords {
		s.coords[i] = next()
	}
}
