package dist

import (
	"fmt"
	"slices"
	"sync"

	"anomalia/internal/core"
	"anomalia/internal/grid"
	"anomalia/internal/par"
)

// Decide runs the local characterization for abnormal device j against
// the directory: fetch the 4r view, run core's decision procedures
// (Theorems 5-7 / Corollary 8) over that view alone, and report the
// communication bill. The verdict is identical to the omniscient one by
// the paper's locality result. The current window is snapshotted once
// at entry, so a concurrent Advance cannot tear the decision across two
// windows.
func Decide(d *Directory, j int, cfg core.Config) (core.Result, Stats, error) {
	if err := d.checkRadius(cfg); err != nil {
		return core.Result{}, Stats{}, err
	}
	w := d.win.Load()
	pos, ok := slices.BinarySearch(w.abnormal, j)
	if !ok {
		return core.Result{}, Stats{}, fmt.Errorf("device %d: %w", j, ErrUnknownDevice)
	}
	view, st := d.view(w, j, pos)
	c, err := core.New(w.pair, view, cfg)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	res, err := c.Characterize(j)
	if err != nil {
		return core.Result{}, Stats{}, err
	}
	return res, st, nil
}

// checkRadius rejects decision configs whose locality requirement the
// directory cannot serve: a verdict at radius R needs the full 4R
// neighbourhood, so the directory must have been built for a radius at
// least that large. Silently undersized views would break the
// "identical to the omniscient verdict" invariant.
func (d *Directory) checkRadius(cfg core.Config) error {
	if cfg.R > d.r {
		return fmt.Errorf("decision radius %v exceeds directory radius %v: %w", cfg.R, d.r, ErrConfig)
	}
	return nil
}

// Decision pairs one device's verdict with its communication bill.
type Decision struct {
	Result core.Result
	Stats  Stats
}

// DecideAll characterizes every indexed abnormal device of the current
// window: DecideRange over the whole sorted abnormal set.
func DecideAll(d *Directory, cfg core.Config) ([]Decision, Stats, error) {
	w := d.win.Load()
	return d.decideRange(w, cfg, 0, len(w.abnormal))
}

// DecideRange characterizes positions [from, to) of the current
// window's sorted abnormal set — the contiguous slice one directory
// shard serves — batching the work: the range's cold blocks are built
// on parallel workers; a cell whose block has no remainder is keyed
// once and all its members take the block's accepted slice as their
// view, while the members of other cells assemble theirs in one
// recycled scratch buffer (a view only materializes when it opens a
// new group); devices with identical views (the common case for a
// compact massive event) share one characterizer so each neighbourhood
// is enumerated once; and the view groups run on parallel workers
// writing disjoint slots of the result slice. Slot
// pos-from holds the decision for device abnormal[pos], so decisions
// come back in device order, with the range's summed Stats; every
// per-device Result and Stats is identical to a standalone Decide call,
// so the outputs of contiguous ranges concatenate to DecideAll's. The
// whole batch runs against one window snapshot taken at entry: a
// concurrent Advance never mixes two windows into one batch. When
// devices fail to characterize, the error is the lowest failing
// position's, whatever the worker count or schedule.
func DecideRange(d *Directory, cfg core.Config, from, to int) ([]Decision, Stats, error) {
	w := d.win.Load()
	if from < 0 || to < from || to > len(w.abnormal) {
		return nil, Stats{}, fmt.Errorf("decide range [%d, %d) over %d abnormal devices", from, to, len(w.abnormal))
	}
	return d.decideRange(w, cfg, from, to)
}

func (d *Directory) decideRange(w *window, cfg core.Config, from, to int) ([]Decision, Stats, error) {
	// Validate the configuration up front: the per-group characterizers
	// only exist when there are devices to decide, and an empty range
	// must reject a bad config exactly like the centralized path does.
	if _, err := core.New(w.pair, nil, cfg); err != nil {
		return nil, Stats{}, err
	}
	if err := d.checkRadius(cfg); err != nil {
		return nil, Stats{}, err
	}
	type group struct {
		view  []int
		slots []int32 // result slots (position - from), ascending
		stats []Stats
	}
	// A cell whose block has no remainder gives all its members one
	// view, so its group and bill are found once, by its first member
	// in the range, and reused by the rest.
	type cellPick struct {
		g  *group
		st Stats
	}
	picks := make([]cellPick, len(w.blocks))
	// Blocks are independent, so the range's cold ones are built on
	// parallel workers up front and the grouping loop only reads them.
	seen := make([]bool, len(w.blocks))
	var cold []int32
	for _, ci := range w.cellOf[from:to] {
		if !seen[ci] && w.blocks[ci].Load() == nil {
			seen[ci] = true
			cold = append(cold, ci)
		}
	}
	par.Each(len(cold), 0, func(k int) { d.blockFor(w, int(cold[k])) })
	groups := make(map[string]*group)
	order := make([]*group, 0)
	var scratch []int
	var keyBuf []byte
	for pos := from; pos < to; pos++ {
		slot := int32(pos - from)
		ci := int(w.cellOf[pos])
		if p := picks[ci]; p.g != nil {
			p.g.slots = append(p.g.slots, slot)
			p.g.stats = append(p.g.stats, p.st)
			continue
		}
		b := d.blockFor(w, ci)
		view := b.cands
		if len(b.rest) > 0 {
			scratch = b.appendView(scratch[:0], w.pair, w.abnormal[pos], d.viewR)
			view = scratch
		}
		st := viewStats(b, len(view))
		// Views are sorted id sets, so the shared grid encoding is a
		// collision-free group key: cells and devices with equal views
		// share one group wherever they sit. The map probe converts in
		// place and the string only materializes for a new group.
		keyBuf = grid.AppendKey(keyBuf[:0], view)
		g, ok := groups[string(keyBuf)]
		if !ok {
			if len(b.rest) > 0 {
				view = slices.Clone(view)
			}
			g = &group{view: view}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		if len(b.rest) == 0 {
			picks[ci] = cellPick{g: g, st: st}
		}
		g.slots = append(g.slots, slot)
		g.stats = append(g.stats, st)
	}

	out := make([]Decision, to-from)
	// A worker stops a group at its first failure, which is the group's
	// lowest failing slot because slots ascend; keeping the minimum over
	// groups makes the reported error independent of the schedule.
	var mu sync.Mutex
	errSlot := len(out)
	var lowestErr error
	fail := func(slot int32, err error) {
		mu.Lock()
		if int(slot) < errSlot {
			errSlot, lowestErr = int(slot), err
		}
		mu.Unlock()
	}
	par.Each(len(order), 0, func(gi int) {
		g := order[gi]
		c, err := core.New(w.pair, g.view, cfg)
		if err != nil {
			fail(g.slots[0], err)
			return
		}
		for i, slot := range g.slots {
			j := w.abnormal[from+int(slot)]
			res, err := c.Characterize(j)
			if err != nil {
				fail(slot, fmt.Errorf("device %d: %w", j, err))
				return
			}
			out[slot] = Decision{Result: res, Stats: g.stats[i]}
		}
	})
	if lowestErr != nil {
		return nil, Stats{}, lowestErr
	}

	// Positions follow sorted device ids, so out is already in device
	// order.
	var total Stats
	for _, dec := range out {
		total.Add(dec.Stats)
	}
	return out, total, nil
}
