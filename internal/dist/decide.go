package dist

import (
	"fmt"
	"slices"
	"sync"

	"anomalia/internal/core"
	"anomalia/internal/grid"
	"anomalia/internal/par"
)

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

// DecideAll characterizes every indexed abnormal device of the
// window: DecideRange over the whole sorted abnormal set.
func DecideAll(d *Directory, cfg core.Config) ([]Decision, Stats, error) {
	return DecideRange(d, cfg, 0, len(d.abnormal))
}

// DecideRange characterizes positions [from, to) of the window's
// sorted abnormal set — the contiguous slice one directory shard
// serves — batching the work: the blocks of the range's cells are built
// on parallel workers into one slab the call owns; a cell whose block
// has no remainder is keyed once and all its members take the block's
// accepted slice as their view, while the members of other cells
// assemble theirs in one recycled scratch buffer (a view only
// materializes when it opens a new group); devices with identical views
// (the common case for a compact massive event) share one characterizer
// so each neighbourhood is enumerated once; and the view groups run on
// parallel workers writing disjoint slots of the result slice. Slot
// pos-from holds the decision for device abnormal[pos], so decisions
// come back in device order, with the range's summed Stats; contiguous
// ranges concatenate to DecideAll's output. When devices fail to
// characterize, the error is the lowest failing position's, whatever
// the worker count or schedule.
func DecideRange(d *Directory, cfg core.Config, from, to int) ([]Decision, Stats, error) {
	if from < 0 || to < from || to > len(d.abnormal) {
		return nil, Stats{}, fmt.Errorf("decide range [%d, %d) over %d abnormal devices", from, to, len(d.abnormal))
	}
	// Validate the configuration up front: the per-group characterizers
	// only exist when there are devices to decide, and an empty range
	// must reject a bad config exactly like the centralized path does.
	if err := cfg.Validate(); err != nil {
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
	// The range's cells, each once in first-use order: local[ci] is
	// cell ci's slot in cells, plus one (0 for a cell outside the
	// range). Blocks are independent, so they are built on parallel
	// workers up front and the grouping loop only reads them.
	local := make([]int32, len(d.cellShard))
	var cells []int32
	for _, ci := range d.cellOf[from:to] {
		if local[ci] == 0 {
			cells = append(cells, ci)
			local[ci] = int32(len(cells))
		}
	}
	blocks := make([]block, len(cells))
	par.Each(len(cells), 0, func(k int) { d.buildBlock(int(cells[k]), &blocks[k]) })
	// A cell whose block has no remainder gives all its members one
	// view, so its group and bill are found once, by its first member
	// in the range, and reused by the rest.
	type cellPick struct {
		g  *group
		st Stats
	}
	picks := make([]cellPick, len(cells))
	groups := make(map[string]*group)
	order := make([]*group, 0)
	var scratch []int
	var keyBuf []byte
	for pos := from; pos < to; pos++ {
		slot := int32(pos - from)
		k := local[d.cellOf[pos]] - 1
		if p := picks[k]; p.g != nil {
			p.g.slots = append(p.g.slots, slot)
			p.g.stats = append(p.g.stats, p.st)
			continue
		}
		b := &blocks[k]
		view := b.cands
		if len(b.rest) > 0 {
			scratch = b.appendView(scratch[:0], d.pair, d.abnormal[pos], d.viewR)
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
			picks[k] = cellPick{g: g, st: st}
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
		c, err := core.New(d.pair, g.view, cfg)
		if err != nil {
			fail(g.slots[0], err)
			return
		}
		// The group's Results own their memory, so its characterizer
		// goes back to the pool for the next group as soon as it is done.
		defer c.Release()
		for i, slot := range g.slots {
			j := d.abnormal[from+int(slot)]
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
