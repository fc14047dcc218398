// Package dist implements the paper's distributed deployment model
// (Section on large-scale deployment): instead of an omniscient monitor
// holding every trajectory, abnormal devices fetch their own 4r
// neighbourhood from a directory service and run the local decision
// procedures of Theorems 5-7 / Corollary 8 on that view alone. The
// paper's locality result (verified centrally by core.TestLocality4r)
// guarantees the verdict is identical to the omniscient one.
//
// The Directory is a sharded index of one window's abnormal
// trajectories, keyed by grid cell at time k-1, and read-only once
// built. Each abnormal window is indexed from scratch: a_k(j) flags a
// change between consecutive windows, so consecutive abnormal sets
// barely overlap and there is nothing worth carrying over. A 4r view
// touches only the cells within two cell sides of the querying device,
// so its cost scales with the local abnormal density, never with the
// fleet size. Devices hit by the same error are spatially co-located
// (restriction R2 confines them to a ball of radius r, half a cell), so
// a decision builds one candidate block per cell — a massive event
// touching hundreds of devices fetches its shared neighbourhood once
// instead of N times. Each block is split once against the box its
// cell's members span at k-1 and at k: accepted candidates are in every
// member's view, rejected ones in none, and only the remainder is
// tested per device. The tests are exact in floating point because
// rounded subtraction is monotone.
//
// DecideRange decides a contiguous slice of a window (DecideAll the
// whole of it) and bills each device's view in Stats. A cell whose
// block has no remainder gives all its members one view, so DecideRange
// groups it once, and devices with equal views share one characterizer
// wherever they sit. The cost study consuming these numbers is
// experiments.DistCost.
package dist

import "errors"

// ErrConfig is returned for invalid directory configurations.
var ErrConfig = errors.New("dist: invalid configuration")

// Stats is the communication bill of one distributed decision: what the
// deciding device exchanged with the directory service. The counters
// follow the logical protocol — one lookup request plus one response per
// shard owning part of the queried block — so they are a pure function
// of the window.
type Stats struct {
	// Messages is the number of protocol messages exchanged with the
	// directory: 1 lookup request + 1 response per contributing shard.
	Messages int
	// Trajectories is the number of trajectories shipped to the device
	// (its own is already local, so |view| - 1).
	Trajectories int
	// ViewSize is |view|: the abnormal devices within uniform-norm
	// distance 4r of the device at both window endpoints, itself included.
	ViewSize int
}

// Add accumulates another decision's bill into s.
func (s *Stats) Add(o Stats) {
	s.Messages += o.Messages
	s.Trajectories += o.Trajectories
	s.ViewSize += o.ViewSize
}
