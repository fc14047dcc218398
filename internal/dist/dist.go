// Package dist implements the paper's distributed deployment model
// (Section on large-scale deployment): instead of an omniscient monitor
// holding every trajectory, abnormal devices fetch their own 4r
// neighbourhood from a directory service and run the local decision
// procedures of Theorems 5-7 / Corollary 8 on that view alone. The
// paper's locality result (verified centrally by core.TestLocality4r)
// guarantees the verdict is identical to the omniscient one.
//
// The Directory is a sharded, concurrency-safe index of one window's
// abnormal trajectories, keyed by grid cell at time k-1. Each abnormal
// window is indexed from scratch: a_k(j) flags a change between
// consecutive windows, so consecutive abnormal sets barely overlap and
// there is nothing worth carrying over. The window is published as one
// immutable snapshot behind an atomic pointer, so in-flight decisions
// always see a coherent window. A 4r-view query touches only the cells
// within two cell sides of the querying device, so its cost scales with
// the local abnormal density, never with the fleet size. Devices hit by
// the same error are spatially co-located (restriction R2 confines them
// to a ball of radius r, half a cell), so the Directory caches
// candidate blocks per cell — a massive event touching hundreds of
// devices fetches its shared neighbourhood once instead of N times.
//
// Decide is the per-device entry point and Stats its communication
// bill; DecideRange batches a contiguous slice of a window (DecideAll
// the whole of it), deduplicating identical views so co-impacted
// devices share one characterizer. The cost study
// consuming these numbers is experiments.DistCost.
package dist

import "errors"

var (
	// ErrConfig is returned for invalid directory configurations.
	ErrConfig = errors.New("dist: invalid configuration")
	// ErrUnknownDevice is returned when deciding for a device the
	// directory does not index (i.e. outside A_k).
	ErrUnknownDevice = errors.New("dist: device not in the abnormal set")
)

// Stats is the communication bill of one distributed decision: what the
// deciding device exchanged with the directory service. The counters
// follow the logical protocol — one lookup request plus one response per
// shard owning part of the queried block — so they are deterministic for
// a given directory regardless of cache state or call interleaving.
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
