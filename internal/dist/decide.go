package dist

import (
	"fmt"
	"slices"
	"sync"

	"anomalia/internal/core"
	"anomalia/internal/par"
	"anomalia/internal/slab"
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

// Decision pairs one device's verdict with its communication bill. The
// Result owns its memory: no directory, pool or later decision writes
// to it. A []Decision belongs to whoever supplied it to DecideRange (a
// new one from DecideAll belongs to its caller).
type Decision struct {
	Result core.Result
	Stats  Stats
}

// DecideAll characterizes every indexed abnormal device of the
// window: DecideRange over the whole sorted abnormal set, into a new
// slice the caller owns.
func DecideAll(d *Directory, cfg core.Config) ([]Decision, Stats, error) {
	return DecideRange(nil, d, cfg, 0, len(d.abnormal))
}

// group is one distinct view of a DecideRange call.
type group struct {
	view []int
	next int32 // the next group with the same view hash, or -1
}

// cellPick is the group and bill every member of a cell whose block has
// no remainder shares; g is the group's index plus one (0: not yet
// picked).
type cellPick struct {
	g  int32
	st Stats
}

// decideMem is the working memory of one DecideRange call, recycled
// through decidePool: nothing in it outlives the call.
type decideMem struct {
	local  []int32 // per directory cell: its slot in cells plus one, 0 outside the range
	cells  []int32 // the range's cells in first-use order
	blocks []block // blocks[k] is cells[k]'s block
	picks  []cellPick
	// byHash maps a view's hash to the last group opened with it; the
	// earlier ones chain through next.
	byHash map[uint64]int32
	groups []group
	views  []int   // the per-device views that opened a group
	view   []int   // one per-device view being assembled
	of     []int32 // per slot: its group
	start  []int32 // group g's slots are slots[start[g]:start[g+1]]
	slots  []int32 // slots grouped by group, ascending within each
}

var decidePool = sync.Pool{New: func() any {
	return &decideMem{byHash: make(map[uint64]int32)}
}}

// DecideRange characterizes positions [from, to) of the window's
// sorted abnormal set — the contiguous slice one directory shard
// serves — batching the work: the blocks of the range's cells are built
// on parallel workers into one recycled slab; a cell whose block
// has no remainder is grouped once and all its members take the block's
// accepted slice as their view, while the members of other cells
// assemble theirs in one scratch buffer (a view is only kept when it
// opens a new group); devices with identical views (the common case for
// a compact massive event) share one characterizer so each
// neighbourhood is enumerated once; and the view groups run on parallel
// workers writing disjoint slots of the result slice. Slot pos-from
// holds the decision for device abnormal[pos], so decisions come back
// in device order, with the range's summed Stats; contiguous ranges
// concatenate to DecideAll's output. When devices fail to characterize,
// the error is the lowest failing position's, whatever the worker count
// or schedule.
//
// The decisions are written into dst's array when its capacity holds
// to-from of them, else into a new one, and the returned slice is that
// array, owned by the caller: a caller that decides window after window
// passes the previous window's slice back in. The call's working
// memory — the cell list, the blocks, the grouping — goes back to a
// package pool before it returns, and every Result owns its memory.
// Concurrent calls on one Directory are safe when their dst arrays are
// distinct.
func DecideRange(dst []Decision, d *Directory, cfg core.Config, from, to int) ([]Decision, Stats, error) {
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
	mem := decidePool.Get().(*decideMem)
	defer mem.release()
	out := slab.Of(dst, to-from)
	mem.group(d, from, to, out)
	groups := mem.groups

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
	par.Each(len(groups), 0, func(gi int) {
		slots := mem.slots[mem.start[gi]:mem.start[gi+1]]
		c, err := core.New(d.pair, groups[gi].view, cfg)
		if err != nil {
			fail(slots[0], err)
			return
		}
		// The group's Results own their memory, so its characterizer
		// goes back to the pool for the next group as soon as it is done.
		defer c.Release()
		for _, slot := range slots {
			j := d.abnormal[from+int(slot)]
			res, err := c.Characterize(j)
			if err != nil {
				fail(slot, fmt.Errorf("device %d: %w", j, err))
				return
			}
			out[slot].Result = res
		}
	})
	if lowestErr != nil {
		return nil, Stats{}, lowestErr
	}

	// Positions follow sorted device ids, so out is already in device
	// order.
	var total Stats
	for i := range out {
		total.Add(out[i].Stats)
	}
	return out, total, nil
}

// group builds the blocks of positions [from, to)'s cells and sorts the
// positions into view groups: mem.groups in first-use order, each one's
// slots (position - from) listed by mem.start and mem.slots. It writes
// each slot's bill into out[slot].Stats.
func (mem *decideMem) group(d *Directory, from, to int, out []Decision) {
	// The range's cells, each once in first-use order: local[ci] is
	// cell ci's slot in cells, plus one (0 for a cell outside the
	// range). Blocks are independent, so they are built on parallel
	// workers up front and the grouping loop only reads them.
	mem.local = slab.Zeroed(mem.local, len(d.cellShard))
	local, cells := mem.local, mem.cells[:0]
	for _, ci := range d.cellOf[from:to] {
		if local[ci] == 0 {
			cells = append(cells, ci)
			local[ci] = int32(len(cells))
		}
	}
	mem.cells = cells
	// Blocks keep the memory of the slot they were built in, so a grown
	// slab carries the old blocks over.
	if len(cells) > cap(mem.blocks) {
		mem.blocks = append(mem.blocks[:cap(mem.blocks)], make([]block, len(cells)-cap(mem.blocks))...)
	}
	blocks := mem.blocks[:len(cells)]
	par.Each(len(cells), 0, func(k int) { d.buildBlock(int(cells[k]), &blocks[k]) })

	// A cell whose block has no remainder gives all its members one
	// view, so its group and bill are found once, by its first member
	// in the range, and reused by the rest.
	picks := slab.Zeroed(mem.picks, len(cells))
	mem.picks = picks
	mem.groups, mem.views = mem.groups[:0], mem.views[:0]
	of := slab.Of(mem.of, to-from)
	mem.of = of
	for pos := from; pos < to; pos++ {
		slot := pos - from
		k := local[d.cellOf[pos]] - 1
		if p := picks[k]; p.g != 0 {
			of[slot], out[slot].Stats = p.g-1, p.st
			continue
		}
		b := &blocks[k]
		view := slices.Clip(b.cands)
		if len(b.rest) > 0 {
			mem.view = b.appendView(mem.view[:0], d.pair, d.abnormal[pos], d.viewR)
			view = mem.view
		}
		st := viewStats(b, len(view))
		// Views are sorted id sets: cells and devices with equal views
		// share one group wherever they sit.
		h := hashView(view)
		g := mem.find(h, view)
		if g < 0 {
			g = int32(len(mem.groups))
			if len(b.rest) > 0 {
				// A view kept earlier stays on the array it was appended
				// to, which later appends never write.
				lo := len(mem.views)
				mem.views = append(mem.views, view...)
				view = mem.views[lo:len(mem.views):len(mem.views)]
			}
			ng := group{view: view, next: -1}
			if head, ok := mem.byHash[h]; ok {
				ng.next = head
			}
			mem.byHash[h] = g
			mem.groups = append(mem.groups, ng)
		}
		if len(b.rest) == 0 {
			picks[k] = cellPick{g: g + 1, st: st}
		}
		of[slot], out[slot].Stats = g, st
	}

	// Counting sort of the slots by group; slots ascend within a group
	// because the fill runs over them in order.
	start := slab.Zeroed(mem.start, len(mem.groups)+1)
	mem.start = start
	for _, g := range of {
		start[g+1]++
	}
	for g := range mem.groups {
		start[g+1] += start[g]
	}
	slots := slab.Of(mem.slots, len(of))
	mem.slots = slots
	for slot, g := range of {
		slots[start[g]] = int32(slot)
		start[g]++
	}
	// The fill advanced each start to the next group's; shift back.
	copy(start[1:], start[:len(mem.groups)])
	start[0] = 0
}

// find returns the group whose view equals view, whose hash is h, or -1.
func (mem *decideMem) find(h uint64, view []int) int32 {
	g, ok := mem.byHash[h]
	if !ok {
		return -1
	}
	for ; g >= 0; g = mem.groups[g].next {
		if slices.Equal(mem.groups[g].view, view) {
			return g
		}
	}
	return -1
}

// hashView mixes a view's ids into 64 bits; equal views hash equally,
// and find compares the views a hash names.
func hashView(view []int) uint64 {
	h := uint64(len(view)) * 0x9e3779b97f4a7c15
	for _, id := range view {
		h = (h ^ uint64(id)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// release empties the grouping and hands the memory back to
// decidePool.
func (mem *decideMem) release() {
	clear(mem.byHash)
	clear(mem.groups) // drop the views, which may pin arrays the views slab outgrew
	decidePool.Put(mem)
}
