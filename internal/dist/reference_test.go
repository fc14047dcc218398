package dist

import (
	"errors"
	"fmt"
	"slices"

	"anomalia/internal/core"
)

// This file holds the per-device reference the batched DecideRange is
// checked against: one device fetches its own block, assembles its 4r
// view and decides on a characterizer of its own, sharing nothing with
// any other device.

// errUnknownDevice is returned when the reference is asked about a
// device the directory does not index (i.e. outside A_k).
var errUnknownDevice = errors.New("dist: device not in the abnormal set")

// View returns the 4r view of abnormal device j: every indexed device
// within uniform-norm distance 4r of j at both window endpoints (j
// included), plus the communication bill of fetching it.
func (d *Directory) View(j int) ([]int, Stats, error) {
	pos, ok := slices.BinarySearch(d.abnormal, j)
	if !ok {
		return nil, Stats{}, fmt.Errorf("device %d: %w", j, errUnknownDevice)
	}
	var b block
	d.buildBlock(int(d.cellOf[pos]), &b)
	view := b.appendView(nil, d.pair, j, d.viewR)
	return view, viewStats(&b, len(view)), nil
}

// Decide runs the local characterization for abnormal device j against
// the directory: fetch the 4r view, run core's decision procedures
// (Theorems 5-7 / Corollary 8) over that view alone, and report the
// communication bill. The verdict is identical to the omniscient one by
// the paper's locality result.
func Decide(d *Directory, j int, cfg core.Config) (core.Result, Stats, error) {
	if err := d.checkRadius(cfg); err != nil {
		return core.Result{}, Stats{}, err
	}
	view, st, err := d.View(j)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	c, err := core.New(d.pair, view, cfg)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	res, err := c.Characterize(j)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	return res, st, nil
}
