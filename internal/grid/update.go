package grid

import (
	"slices"

	"anomalia/internal/par"
	"anomalia/internal/space"
)

// RebuildChurnFraction is the churn fraction — cell-membership changes
// (id adds + removes + cell moves) over the new indexed-set size — above
// which Update abandons the delta patch and rebuilds the index from
// scratch. The delta path saves the build's O(m log m) key sort (the
// dominator at million-id windows) and, below this fraction, touches
// only churn-sized state beyond the raw id diff; as churn grows the
// patch metadata converges on the rebuild's own work. The churn sweep
// recorded in BENCH_5.json keeps the patch ahead of the rebuild well
// past 10% churn, so this threshold is conservative — beyond it the
// rebuild costs at most a small constant factor more than the optimal
// choice.
const RebuildChurnFraction = 0.35

// UpdateStats reports what one Update did, in the terms a consumer
// maintaining derived per-cell state (dist.Directory's shard annotations
// and 4r block caches) needs to stay incremental itself.
type UpdateStats struct {
	// Rebuilt reports that Update fell back to a full New build: churn
	// fraction above RebuildChurnFraction, non-canonical (unsorted or
	// duplicated) ids or moved list, a dimension change, or an empty
	// old or new indexed set. When set, Added/Removed/Moved still hold
	// the id diff when it was computed, but Sources, ChurnedCells and
	// VacatedCoords are nil — derived state must be rebuilt too.
	Rebuilt bool
	// Added, Removed and Moved count the id-level diff: ids new to the
	// index, ids dropped from it, and ids kept whose cell key changed.
	Added, Removed, Moved int
	// Sources maps every cell of the updated index to the position of
	// the old cell with the same key, or -1 for newly occupied cells.
	// A sourced cell has identical coordinates (keys are injective), so
	// coordinate-derived annotations carry over untouched. A nil
	// Sources on a non-rebuilt update means the cell set is unchanged —
	// cell i descends from cell i (the common steady-state window, kept
	// allocation-free).
	Sources []int32
	// ChurnedCells lists the positions (ascending, in the updated
	// index's cell order) of cells whose membership changed: newly
	// occupied cells and surviving cells that gained or lost ids.
	ChurnedCells []int32
	// VacatedCoords holds the coordinate vectors (flat, Dim ints per
	// cell) of old cells left empty — they no longer exist in the
	// updated index, but neighbourhood caches around them still need
	// invalidating. The slice aliases the old index's storage.
	VacatedCoords []int
}

// Churn returns the number of cell-membership changes in the diff.
func (s UpdateStats) Churn() int { return s.Added + s.Removed + s.Moved }

// compactionWasteFactor bounds the dead arena fragments patched windows
// leave behind: when they exceed this multiple of the live id count the
// next Update compacts into tight slabs. Higher values amortize the
// O(m) compaction over more windows at the price of up to factor×m
// retained dead entries (8 bytes each) — at 1% churn over ~12-id cells
// a patch retires ~0.2m entries, so 4 compacts roughly every 18
// windows.
const compactionWasteFactor = 4

// removal is one id leaving its old cell (dropped or moved away).
type removal struct {
	cell int32
	id   int
}

// keyAtCell returns the packed key of the ci-th cell.
func (ix *Index) keyAtCell(ci int) []uint64 {
	s := ix.kc.stride
	return ix.keys[ci*s : (ci+1)*s]
}

// delta is the churn-sized patch a window-to-window diff produced:
// removals grouped by old cell, insertions sorted by (key, id) with
// their packed keys, and the per-insertion final cell filled in by the
// patch for the idCell resolution pass.
type delta struct {
	rem     []removal
	ins     []int32  // positions into the new ids, sorted by (key, id)
	insKeys []uint64 // stride words per ins entry, aligned with ins
	insCell []int32  // final cell of every ins entry, filled by the patch
}

func (d *delta) insKeyAt(stride int, k int) []uint64 {
	return d.insKeys[k*stride : (k+1)*stride]
}

// Update derives the index of the next observation window from this
// one: newState supplies the new positions, ids the new indexed set
// (strictly ascending, like every production caller's canonical set),
// and moved the delta feed — the sorted ids whose cell may have changed
// since the old window. In the paper's deployment the moved list is
// what the directory service receives anyway (a device that moves
// pushes its update; the service never rescans the fleet), and it is
// what keeps Update sublinear in everything but the raw id diff: only
// listed (and newly added) ids have their packed keys recomputed.
// moved == nil means "unknown" and falls back to rechecking every id's
// key — always correct, still sort-free. Ids in moved that are not
// indexed are ignored; listing an id that did not actually change cell
// is a no-op. An indexed id that changed cell but is neither listed nor
// newly added silently keeps its stale cell — the moved contract is the
// caller's to honor (the fuzz suite feeds honest and superset lists).
//
// Old keys come from the retained cell membership, never from the old
// state, so the old window's state buffers may already have been
// recycled. The patch shares every slab the churn did not touch with
// the old index — untouched cells keep their id-list views into prior
// windows' arenas (id storage is pointer-free, so retaining it costs
// the collector nothing), churned cells fill a churn-sized delta arena,
// and the key and coordinate slabs are reused outright while the cell
// set is stable — so a low-churn advance allocates and copies O(churn +
// cells), never O(m). Dead arena fragments accumulate at churn rate and
// are bounded by compaction: when they exceed the live id count the
// patch falls into a full sorted-merge that materializes tight slabs
// again (amortized O(1) per window). The result is observably identical
// to New(newState, ids, p) — same cells, coordinates, id order, and
// lookup behaviour (the parity property the update suite pins). When
// the churn fraction exceeds RebuildChurnFraction, or the inputs leave
// the delta path's preconditions, Update falls back to a full rebuild
// and says so in the stats. The receiver is never mutated: readers of
// the old index are undisturbed, which is what lets consumers publish
// the returned index with a single pointer swap.
func (ix *Index) Update(newState *space.State, ids []int, moved []int) (*Index, UpdateStats) {
	m := len(ids)
	// The steady-state fast lane: the caller re-indexes the very slice
	// this index holds (the persistent directory reuses its abnormal set
	// when the membership did not change), so the id diff is empty by
	// construction and sortedness is already known.
	sameIds := m > 0 && len(ix.ids) == m && &ids[0] == &ix.ids[0]
	if m == 0 || len(ix.ids) == 0 || !ix.idsSorted || !(sameIds || sortedUnique(ids)) ||
		!sortedUnique(moved) || newState.Dim() != ix.dim {
		return New(newState, ids, ix.Params), UpdateStats{Rebuilt: true}
	}
	stride := ix.kc.stride
	recheckAll := moved == nil

	// Phase 1 (recheck mode only): new packed keys for every id, sharded
	// like the full build. With a delta feed this whole pass — the only
	// per-id floating-point work — disappears.
	var newKeys []uint64
	if recheckAll {
		newKeys = make([]uint64, m*stride)
		par.Ranges(m, 0, minPerWorker, func(_, lo, hi int) {
			var cbuf [space.MaxDim]int
			for i := lo; i < hi; i++ {
				coords := ix.Coords(newState.At(ids[i]), cbuf[:0])
				ix.kc.appendKey(newKeys[i*stride:i*stride:(i+1)*stride], coords)
			}
		})
	}
	var cbuf [space.MaxDim]int
	var kbuf [space.MaxDim]uint64
	keyOf := func(id int) []uint64 { // exact key of one id's new position
		coords := ix.Coords(newState.At(id), cbuf[:0])
		return ix.kc.appendKey(kbuf[:0], coords)
	}

	// Phase 2: id-level diff of the two sorted sets, consulting the
	// moved feed. Old keys are the keys of the cells currently holding
	// each id; new keys are only computed for added and listed ids.
	// When the indexed slice is unchanged and a delta feed is present,
	// the diff collapses to the feed itself — O(churn log m), no O(m)
	// walk at all.
	var st UpdateStats
	var d delta
	old := ix.ids
	if sameIds && !recheckAll {
		for _, mv := range moved {
			j, ok := slices.BinarySearch(ids, mv)
			if !ok {
				continue
			}
			nk := keyOf(mv)
			oc := ix.idCell[j]
			if !slices.Equal(ix.keyAtCell(int(oc)), nk) {
				d.rem = append(d.rem, removal{oc, mv})
				d.ins = append(d.ins, int32(j))
				d.insKeys = append(d.insKeys, nk...)
				st.Moved++
			}
		}
		return ix.applyDelta(newState, ids, &d, &st)
	}
	i, j, mi := 0, 0, 0
	for i < len(old) && j < m {
		switch {
		case old[i] < ids[j]:
			d.rem = append(d.rem, removal{ix.idCell[i], old[i]})
			st.Removed++
			i++
		case old[i] > ids[j]:
			d.ins = append(d.ins, int32(j))
			if recheckAll {
				d.insKeys = append(d.insKeys, newKeys[j*stride:(j+1)*stride]...)
			} else {
				d.insKeys = append(d.insKeys, keyOf(ids[j])...)
			}
			st.Added++
			j++
		default:
			var nk []uint64
			if recheckAll {
				nk = newKeys[j*stride : (j+1)*stride]
			} else {
				for mi < len(moved) && moved[mi] < ids[j] {
					mi++
				}
				if mi < len(moved) && moved[mi] == ids[j] {
					nk = keyOf(ids[j])
				}
			}
			if nk != nil {
				oc := ix.idCell[i]
				if !slices.Equal(ix.keyAtCell(int(oc)), nk) {
					d.rem = append(d.rem, removal{oc, old[i]})
					d.ins = append(d.ins, int32(j))
					d.insKeys = append(d.insKeys, nk...)
					st.Moved++
				}
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		d.rem = append(d.rem, removal{ix.idCell[i], old[i]})
		st.Removed++
	}
	for ; j < m; j++ {
		d.ins = append(d.ins, int32(j))
		if recheckAll {
			d.insKeys = append(d.insKeys, newKeys[j*stride:(j+1)*stride]...)
		} else {
			d.insKeys = append(d.insKeys, keyOf(ids[j])...)
		}
		st.Added++
	}
	return ix.applyDelta(newState, ids, &d, &st)
}

// applyDelta turns a computed diff into the next index: it dispatches
// between rebuild (past the churn threshold), whole-slab sharing (empty
// delta), compaction (accumulated arena waste) and the churn-sized fast
// patch, then resolves the id→cell record.
func (ix *Index) applyDelta(newState *space.State, ids []int, d *delta, st *UpdateStats) (*Index, UpdateStats) {
	m := len(ids)
	stride := ix.kc.stride
	old := ix.ids
	if float64(st.Churn()) > RebuildChurnFraction*float64(m) {
		st.Rebuilt = true
		return New(newState, ids, ix.Params), *st
	}

	// Identical window: share every slab; only the struct and the id
	// slice reference change.
	if st.Churn() == 0 {
		nix := &Index{
			Params: ix.Params, state: newState, dim: ix.dim, kc: ix.kc,
			keys: ix.keys, cells: ix.cells, coords: ix.coords,
			idArena: ix.idArena, ids: ids, idCell: ix.idCell,
			idsSorted: true, arenaWaste: ix.arenaWaste,
		}
		return nix, *st
	}

	// Phase 3: sort the churn-sized deltas. Removals group by old cell
	// (cell order is key order) with ids ascending inside each cell;
	// insertions order by (key, id) — position ties are id ties, since
	// ids is ascending. When everything fits, both sorts run over packed
	// composite words (no comparator); the general path sorts a
	// permutation so ins and insKeys stay aligned.
	maxOldId := old[len(old)-1]
	if maxOldId >= 0 && maxOldId < 1<<32 && len(ix.cells) < 1<<31 {
		com := make([]uint64, len(d.rem))
		for k, r := range d.rem {
			com[k] = uint64(r.cell)<<32 | uint64(uint32(r.id))
		}
		slices.Sort(com)
		for k, c := range com {
			d.rem[k] = removal{int32(c >> 32), int(uint32(c))}
		}
	} else {
		slices.SortFunc(d.rem, func(a, b removal) int {
			if a.cell != b.cell {
				return int(a.cell) - int(b.cell)
			}
			return a.id - b.id
		})
	}
	if stride == 1 && ix.kc.shift*uint(ix.dim) <= 32 && m < 1<<31 {
		// Packed-32 geometry: key and position share one word, exactly
		// like the full build's composite sort.
		com := make([]uint64, len(d.ins))
		for k := range d.ins {
			com[k] = d.insKeys[k]<<32 | uint64(uint32(d.ins[k]))
		}
		slices.Sort(com)
		for k, c := range com {
			d.ins[k] = int32(uint32(c))
			d.insKeys[k] = c >> 32
		}
	} else {
		order := make([]int32, len(d.ins))
		for k := range order {
			order[k] = int32(k)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := slices.Compare(d.insKeyAt(stride, int(a)), d.insKeyAt(stride, int(b))); c != 0 {
				return c
			}
			return int(d.ins[a]) - int(d.ins[b])
		})
		sortedIns := make([]int32, len(d.ins))
		sortedKeys := make([]uint64, len(d.insKeys))
		for k, o := range order {
			sortedIns[k] = d.ins[o]
			copy(sortedKeys[k*stride:(k+1)*stride], d.insKeyAt(stride, int(o)))
		}
		d.ins, d.insKeys = sortedIns, sortedKeys
	}
	d.insCell = make([]int32, len(d.ins))

	var nix *Index
	if ix.arenaWaste > compactionWasteFactor*len(ix.ids) {
		// Dead fragments from past patches outweigh the live ids:
		// compact into tight slabs while applying this delta.
		nix = ix.compactMerge(newState, ids, d, st)
	} else {
		nix = ix.fastPatch(newState, ids, d, st)
	}

	// Resolve idCell: when no id entered or left the set and the cell
	// set is stable, positions and cell indices both survive — bulk-copy
	// the old record and overwrite the churned entries. Otherwise walk
	// the two sorted id sets in lock step (tagging inserted positions
	// with their complemented final cell first), remapping unchanged
	// ids' old cells to their new positions.
	identity := st.Sources == nil // nil Sources: cell i descends from cell i
	buildRemap := func() []int32 {
		remap := make([]int32, len(ix.cells))
		for i := range remap {
			remap[i] = -1
		}
		for nc, src := range st.Sources {
			if src >= 0 {
				remap[src] = int32(nc)
			}
		}
		return remap
	}
	if st.Added == 0 && st.Removed == 0 {
		// Positions survive. With a stable cell set, clone (no zeroing —
		// makeslicecopy skips it for pointer-free elements); with a
		// shifted one, renumber through the remap table — either way no
		// id-diff walk. Moved ids land on -1 remaps of vacated cells and
		// are fixed up by the insertion patch right after.
		if identity {
			nix.idCell = slices.Clone(ix.idCell)
		} else {
			remap := buildRemap()
			nix.idCell = make([]int32, m)
			for j, v := range ix.idCell {
				nix.idCell[j] = remap[v]
			}
		}
		for k, p := range d.ins {
			nix.idCell[p] = d.insCell[k]
		}
	} else {
		nix.idCell = make([]int32, m)
		var remap []int32
		if !identity {
			remap = buildRemap()
		}
		for k, p := range d.ins {
			nix.idCell[p] = ^d.insCell[k]
		}
		i := 0
		for j := 0; j < m; j++ {
			if v := nix.idCell[j]; v < 0 {
				nix.idCell[j] = ^v
				if i < len(old) && old[i] == ids[j] {
					i++ // moved id: consume its old entry too
				}
				continue
			}
			// Unchanged id: its old entry exists; skip removed ids.
			for old[i] < ids[j] {
				i++
			}
			if identity {
				nix.idCell[j] = ix.idCell[i]
			} else {
				nix.idCell[j] = remap[ix.idCell[i]]
			}
			i++
		}
	}
	return nix, *st
}

// event is one churned position of the old cell order: a surviving cell
// with removals and/or insertions, or a run of insertions opening a new
// cell that sorts immediately before old cell at.
type event struct {
	at           int32 // old cell position (insertion point for new cells)
	isNew        bool
	remLo, remHi int32
	insLo, insHi int32
}

// buildEvents groups the sorted delta into per-cell events in old-cell
// (= key) order.
func (ix *Index) buildEvents(d *delta) []event {
	stride := ix.kc.stride
	var events []event
	type remGroup struct{ cell, lo, hi int32 }
	var groups []remGroup
	for lo := 0; lo < len(d.rem); {
		hi := lo
		for hi < len(d.rem) && d.rem[hi].cell == d.rem[lo].cell {
			hi++
		}
		groups = append(groups, remGroup{d.rem[lo].cell, int32(lo), int32(hi)})
		lo = hi
	}
	type insRun struct {
		target int32
		isNew  bool
		lo, hi int32
	}
	var runs []insRun
	for lo := 0; lo < len(d.ins); {
		hi := lo
		key := d.insKeyAt(stride, lo)
		for hi < len(d.ins) && slices.Equal(d.insKeyAt(stride, hi), key) {
			hi++
		}
		if ci := ix.findKey(key); ci >= 0 {
			runs = append(runs, insRun{int32(ci), false, int32(lo), int32(hi)})
		} else {
			runs = append(runs, insRun{int32(ix.lowerBoundKey(key)), true, int32(lo), int32(hi)})
		}
		lo = hi
	}
	g, r := 0, 0
	for g < len(groups) || r < len(runs) {
		switch {
		case r < len(runs) && runs[r].isNew &&
			(g >= len(groups) || runs[r].target <= groups[g].cell):
			events = append(events, event{at: runs[r].target, isNew: true,
				insLo: runs[r].lo, insHi: runs[r].hi})
			r++
		case g >= len(groups) || (r < len(runs) && runs[r].target < groups[g].cell):
			events = append(events, event{at: runs[r].target,
				insLo: runs[r].lo, insHi: runs[r].hi})
			r++
		case r >= len(runs) || groups[g].cell < runs[r].target:
			events = append(events, event{at: groups[g].cell,
				remLo: groups[g].lo, remHi: groups[g].hi})
			g++
		default: // same surviving cell gains and loses ids
			events = append(events, event{at: groups[g].cell,
				remLo: groups[g].lo, remHi: groups[g].hi,
				insLo: runs[r].lo, insHi: runs[r].hi})
			g++
			r++
		}
	}
	return events
}

// lowerBoundKey returns the position of the first cell whose key is
// >= key (possibly len(cells)).
func (ix *Index) lowerBoundKey(key []uint64) int {
	stride := ix.kc.stride
	lo, hi := 0, len(ix.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slices.Compare(ix.keys[mid*stride:(mid+1)*stride], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fillCellIds merges one cell's surviving old ids with its insertion
// run into dst (which must have the exact capacity left) and returns
// the extension. rem/ins cursors are the event's ranges.
func fillCellIds(dst []int, oldIds []int, d *delta, ids []int, ev event, nc int32) []int {
	ri, ii := ev.remLo, ev.insLo
	oi := 0
	for oi < len(oldIds) || ii < ev.insHi {
		if oi < len(oldIds) && ri < ev.remHi && d.rem[ri].id == oldIds[oi] {
			ri++
			oi++
			continue
		}
		// Survivor and insertion ids are disjoint, so strict comparison
		// picks each id exactly once, ascending.
		if ii >= ev.insHi || (oi < len(oldIds) && oldIds[oi] < ids[d.ins[ii]]) {
			dst = append(dst, oldIds[oi])
			oi++
		} else {
			dst = append(dst, ids[d.ins[ii]])
			d.insCell[ii] = nc
			ii++
		}
	}
	return dst
}

// fastPatch applies a churn-sized delta by sharing every slab the churn
// did not touch: untouched cells are block-copied with their id views
// left pointing into prior windows' arenas, churned cells fill a fresh
// delta arena, and the key slab is reused outright while the cell set
// is stable (spliced copies otherwise). Work and fresh allocation are
// O(cells + churn) — the only O(m) term left in Update is the id diff
// itself.
func (ix *Index) fastPatch(newState *space.State, ids []int, d *delta, st *UpdateStats) *Index {
	stride := ix.kc.stride
	dim := ix.dim
	events := ix.buildEvents(d)

	// Pre-pass: size the output.
	vacated, created, arenaNeed := 0, 0, 0
	for _, ev := range events {
		out := int(ev.insHi - ev.insLo)
		if !ev.isNew {
			out += len(ix.cells[ev.at].Ids) - int(ev.remHi-ev.remLo)
		} else {
			created++
		}
		if out == 0 {
			vacated++
		} else {
			arenaNeed += out
		}
	}
	nCells := len(ix.cells) - vacated + created
	shifted := vacated > 0 || created > 0

	nix := &Index{
		Params: ix.Params, state: newState, dim: dim, kc: ix.kc,
		ids: ids, idsSorted: true,
	}
	nix.idArena = make([]int, 0, arenaNeed)
	nix.coords = ix.coords // storage only; surviving cells' views point anywhere

	if !shifted {
		// The cell set is stable: clone the cell slab in one bulk copy
		// (no zeroing) and overwrite just the churned cells' id views;
		// keys stay shared. Every event is a surviving cell here.
		nix.keys = ix.keys
		nix.cells = slices.Clone(ix.cells)
		waste := 0
		for _, ev := range events {
			oc := ev.at
			cell := &ix.cells[oc]
			waste += len(cell.Ids)
			start := len(nix.idArena)
			nix.idArena = fillCellIds(nix.idArena, cell.Ids, d, ids, ev, oc)
			nix.cells[oc].Ids = nix.idArena[start:len(nix.idArena):len(nix.idArena)]
			st.ChurnedCells = append(st.ChurnedCells, oc)
		}
		nix.arenaWaste = ix.arenaWaste + waste
		return nix
	}

	nix.cells = make([]Cell, 0, nCells)
	nix.keys = make([]uint64, 0, nCells*stride)
	st.Sources = make([]int32, 0, nCells)

	// Walk the events in old-cell order, block-copying the untouched
	// runs between them.
	copyRun := func(lo, hi int32) { // old cell positions [lo, hi)
		if lo >= hi {
			return
		}
		nix.keys = append(nix.keys, ix.keys[int(lo)*stride:int(hi)*stride]...)
		for oc := lo; oc < hi; oc++ {
			st.Sources = append(st.Sources, oc)
		}
		nix.cells = append(nix.cells, ix.cells[lo:hi]...)
	}
	var newCoords []int // backing for created cells' coordinates
	prev := int32(0)
	waste := 0
	for _, ev := range events {
		copyRun(prev, ev.at)
		if ev.isNew {
			prev = ev.at
		} else {
			prev = ev.at + 1
		}
		nc := int32(len(nix.cells))
		if !ev.isNew {
			cell := &ix.cells[ev.at]
			waste += len(cell.Ids)
			out := len(cell.Ids) - int(ev.remHi-ev.remLo) + int(ev.insHi-ev.insLo)
			if out == 0 { // vacated
				st.VacatedCoords = append(st.VacatedCoords, cell.Coords...)
				continue
			}
			nix.keys = append(nix.keys, ix.keyAtCell(int(ev.at))...)
			st.Sources = append(st.Sources, ev.at)
			start := len(nix.idArena)
			nix.idArena = fillCellIds(nix.idArena, cell.Ids, d, ids, ev, nc)
			nix.cells = append(nix.cells, Cell{
				Coords: cell.Coords,
				Ids:    nix.idArena[start:len(nix.idArena):len(nix.idArena)],
			})
		} else {
			nix.keys = append(nix.keys, d.insKeyAt(stride, int(ev.insLo))...)
			st.Sources = append(st.Sources, -1)
			var cbuf [space.MaxDim]int
			coords := nix.Coords(newState.At(ids[d.ins[ev.insLo]]), cbuf[:0])
			base := len(newCoords)
			newCoords = append(newCoords, coords...)
			start := len(nix.idArena)
			nix.idArena = fillCellIds(nix.idArena, nil, d, ids, ev, nc)
			nix.cells = append(nix.cells, Cell{
				Coords: newCoords[base : base+dim : base+dim],
				Ids:    nix.idArena[start:len(nix.idArena):len(nix.idArena)],
			})
		}
		st.ChurnedCells = append(st.ChurnedCells, nc)
	}
	copyRun(prev, int32(len(ix.cells)))
	nix.arenaWaste = ix.arenaWaste + waste
	return nix
}

// compactMerge applies the delta through a full three-way sorted merge
// that rebuilds tight slabs — the compaction path, taken when dead
// arena fragments from past patches outweigh the live ids. It is the
// same O(m) pass a from-scratch fill runs, minus the sort.
func (ix *Index) compactMerge(newState *space.State, ids []int, d *delta, st *UpdateStats) *Index {
	stride := ix.kc.stride
	m := len(ids)
	distinct := 0
	for k := 0; k < len(d.ins); k++ {
		if k == 0 || !slices.Equal(d.insKeyAt(stride, k), d.insKeyAt(stride, k-1)) {
			distinct++
		}
	}
	oldCells := len(ix.cells)
	capCells := oldCells + distinct
	nix := &Index{
		Params: ix.Params, state: newState, dim: ix.dim, kc: ix.kc,
		ids: ids, idsSorted: true,
	}
	nix.keys = make([]uint64, 0, capCells*stride)
	nix.cells = make([]Cell, 0, capCells)
	nix.coords = make([]int, 0, capCells*ix.dim)
	nix.idArena = make([]int, 0, m)
	st.Sources = make([]int32, 0, capCells)

	appendCell := func(key []uint64, coords []int, src int32, churned bool) int32 {
		nc := int32(len(nix.cells))
		nix.keys = append(nix.keys, key...)
		start := len(nix.coords)
		nix.coords = append(nix.coords, coords...)
		nix.cells = append(nix.cells, Cell{Coords: nix.coords[start:len(nix.coords):len(nix.coords)]})
		st.Sources = append(st.Sources, src)
		if churned {
			st.ChurnedCells = append(st.ChurnedCells, nc)
		}
		return nc
	}
	closeCell := func(nc int32, start int) {
		nix.cells[nc].Ids = nix.idArena[start:len(nix.idArena):len(nix.idArena)]
	}

	ri, ii, oc := 0, 0, 0
	for oc < oldCells || ii < len(d.ins) {
		cmp := 0
		switch {
		case oc >= oldCells:
			cmp = 1
		case ii >= len(d.ins):
			cmp = -1
		default:
			cmp = slices.Compare(ix.keyAtCell(oc), d.insKeyAt(stride, ii))
		}
		switch {
		case cmp < 0: // old cell with no insertions: copy, minus removals
			cell := &ix.cells[oc]
			rk := ri
			for rk < len(d.rem) && int(d.rem[rk].cell) == oc {
				rk++
			}
			if rk-ri == len(cell.Ids) { // every member left: cell vacated
				st.VacatedCoords = append(st.VacatedCoords, cell.Coords...)
				ri = rk
				oc++
				continue
			}
			nc := appendCell(ix.keyAtCell(oc), cell.Coords, int32(oc), rk > ri)
			start := len(nix.idArena)
			if rk == ri {
				nix.idArena = append(nix.idArena, cell.Ids...)
			} else {
				for _, id := range cell.Ids {
					if ri < rk && d.rem[ri].id == id {
						ri++
						continue
					}
					nix.idArena = append(nix.idArena, id)
				}
			}
			ri = rk
			closeCell(nc, start)
			oc++
		case cmp > 0: // insertion run with no old cell: newly occupied
			key := d.insKeyAt(stride, ii)
			var cbuf [space.MaxDim]int
			coords := nix.Coords(newState.At(ids[d.ins[ii]]), cbuf[:0])
			nc := appendCell(key, coords, -1, true)
			start := len(nix.idArena)
			for ii < len(d.ins) && slices.Equal(d.insKeyAt(stride, ii), key) {
				nix.idArena = append(nix.idArena, ids[d.ins[ii]])
				d.insCell[ii] = nc
				ii++
			}
			closeCell(nc, start)
		default: // surviving cell patched: merge survivors with the run
			cell := &ix.cells[oc]
			rk := ri
			for rk < len(d.rem) && int(d.rem[rk].cell) == oc {
				rk++
			}
			insEnd := ii
			key := ix.keyAtCell(oc)
			for insEnd < len(d.ins) && slices.Equal(d.insKeyAt(stride, insEnd), key) {
				insEnd++
			}
			nc := appendCell(key, cell.Coords, int32(oc), true)
			start := len(nix.idArena)
			nix.idArena = fillCellIds(nix.idArena, cell.Ids, d, ids,
				event{remLo: int32(ri), remHi: int32(rk), insLo: int32(ii), insHi: int32(insEnd)}, nc)
			ri, ii = rk, insEnd
			closeCell(nc, start)
			oc++
		}
	}
	return nix
}
