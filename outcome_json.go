package anomalia

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// windowReport is a Report as a window record writes it: its dense
// motions are indices into the record's motion table. Class is the
// class's text, which Class.String returns without allocating.
type windowReport struct {
	Device     int    `json:"device"`
	Class      string `json:"class"`
	Rule       string `json:"rule"`
	MotionRefs []int  `json:"motion_refs,omitempty"`
	Cost       Cost   `json:"cost"`
}

// windowRecord is an Outcome as JSON writes it: each distinct dense
// motion once, in Motions, in first-appearance order (reports in order,
// each report's motions in order).
type windowRecord struct {
	Reports    []windowReport `json:"reports"`
	Massive    []int          `json:"massive,omitempty"`
	Isolated   []int          `json:"isolated,omitempty"`
	Unresolved []int          `json:"unresolved,omitempty"`
	Motions    [][]int        `json:"motions,omitempty"`
	Dist       *DistStats     `json:"dist,omitempty"`
}

// sliceKey identifies a non-empty slice by its first element and its
// length: two slices with the same key hold the same elements.
type sliceKey[T any] struct {
	first *T
	n     int
}

// motionTable is the encoder's scratch for one window record. Lookups
// by slice identity catch the sharing the characterizer produces (one
// family's reports share their DenseMotions, families share motions);
// the content lookup behind them makes the table, and so the record,
// depend on the Outcome's value alone.
type motionTable struct {
	rec      windowRecord
	reps     []windowReport
	refs     []int          // every report's motion_refs, back to back
	motions  [][]int        // the table, in first-appearance order
	next     []int          // next table index with the same hash, -1 ends
	byHash   map[uint64]int // content hash → 1 + newest table index
	byMotion map[sliceKey[int]]int
	byFamily map[sliceKey[[]int]][]int
}

var tablePool = sync.Pool{New: func() any {
	return &motionTable{
		// Non-nil, so an empty non-nil Reports still writes [].
		reps:     make([]windowReport, 0, 64),
		byHash:   map[uint64]int{},
		byMotion: map[sliceKey[int]]int{},
		byFamily: map[sliceKey[[]int]][]int{},
	}
}}

// MarshalJSON writes the Outcome as a window record. Each distinct
// dense motion appears once, in a window-level "motions" table, and
// each report lists its DenseMotions as "motion_refs", indices into
// that table. The table holds the motions in first-appearance order,
// so the bytes depend only on the Outcome's value, not on which of its
// slices share memory.
func (o Outcome) MarshalJSON() ([]byte, error) {
	t := tablePool.Get().(*motionTable)
	defer t.release()
	return json.Marshal(t.record(&o))
}

// record fills t.rec from o.
func (t *motionTable) record(o *Outcome) *windowRecord {
	total := 0
	for i := range o.Reports {
		total += len(o.Reports[i].DenseMotions)
	}
	// refsOf hands out subslices of t.refs, so it must not move.
	if cap(t.refs) < total {
		t.refs = make([]int, 0, total)
	}
	reps := t.reps[:0]
	for i := range o.Reports {
		r := &o.Reports[i]
		reps = append(reps, windowReport{
			Device:     r.Device,
			Class:      r.Class.String(),
			Rule:       r.Rule,
			MotionRefs: t.refsOf(r.DenseMotions),
			Cost:       r.Cost,
		})
	}
	t.reps = reps
	if o.Reports == nil {
		reps = nil
	}
	t.rec = windowRecord{
		Reports:    reps,
		Massive:    o.Massive,
		Isolated:   o.Isolated,
		Unresolved: o.Unresolved,
		Motions:    t.motions,
		Dist:       o.Dist,
	}
	return &t.rec
}

// refsOf returns the table indices of dense, adding motions the table
// lacks.
func (t *motionTable) refsOf(dense [][]int) []int {
	if len(dense) == 0 {
		return nil
	}
	key := sliceKey[[]int]{&dense[0], len(dense)}
	if refs, ok := t.byFamily[key]; ok {
		return refs
	}
	start := len(t.refs)
	for _, m := range dense {
		t.refs = append(t.refs, t.index(m))
	}
	refs := t.refs[start:len(t.refs):len(t.refs)]
	t.byFamily[key] = refs
	return refs
}

// index returns m's table index, adding m if no equal motion is there.
func (t *motionTable) index(m []int) int {
	var key sliceKey[int]
	if len(m) > 0 {
		key = sliceKey[int]{&m[0], len(m)}
		if i, ok := t.byMotion[key]; ok {
			return i
		}
	}
	h := hashIDs(m)
	i := t.byHash[h] - 1
	for i >= 0 && !slices.Equal(t.motions[i], m) {
		i = t.next[i]
	}
	if i < 0 {
		i = len(t.motions)
		t.motions = append(t.motions, m)
		t.next = append(t.next, t.byHash[h]-1)
		t.byHash[h] = i + 1
	}
	if len(m) > 0 {
		t.byMotion[key] = i
	}
	return i
}

// release drops every reference into the encoded Outcome and returns
// t to the pool with its capacity.
func (t *motionTable) release() {
	t.rec = windowRecord{}
	clear(t.reps)
	clear(t.motions)
	t.motions = t.motions[:0]
	t.refs = t.refs[:0]
	t.next = t.next[:0]
	clear(t.byHash)
	clear(t.byMotion)
	clear(t.byFamily)
	tablePool.Put(t)
}

// hashIDs is FNV-1a over the ids' 64-bit values.
func hashIDs(ids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range ids {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// UnmarshalJSON reads a window record written by MarshalJSON. Reports
// with the same motion_refs share one DenseMotions slice, and every
// report shares the table's motions; treat them as read-only. A
// reference outside the table, or a report without a valid class, is an
// error wrapping ErrInvalidInput.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var rec windowRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	out := Outcome{
		Massive:    rec.Massive,
		Isolated:   rec.Isolated,
		Unresolved: rec.Unresolved,
		Dist:       rec.Dist,
	}
	if rec.Reports != nil {
		out.Reports = make([]Report, len(rec.Reports))
	}
	type family struct {
		refs  []int
		dense [][]int
	}
	families := map[uint64]family{}
	for i, r := range rec.Reports {
		var class Class
		if err := class.UnmarshalText([]byte(r.Class)); err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
		var dense [][]int
		if len(r.MotionRefs) > 0 {
			h := hashIDs(r.MotionRefs)
			if f, ok := families[h]; ok && slices.Equal(f.refs, r.MotionRefs) {
				dense = f.dense
			} else {
				dense = make([][]int, len(r.MotionRefs))
				for k, ref := range r.MotionRefs {
					if ref < 0 || ref >= len(rec.Motions) {
						return fmt.Errorf("report %d: motion ref %d outside a table of %d: %w",
							i, ref, len(rec.Motions), ErrInvalidInput)
					}
					dense[k] = rec.Motions[ref]
				}
				families[h] = family{r.MotionRefs, dense}
			}
		}
		out.Reports[i] = Report{
			Device:       r.Device,
			Class:        class,
			Rule:         r.Rule,
			DenseMotions: dense,
			Cost:         r.Cost,
		}
	}
	*o = out
	return nil
}
