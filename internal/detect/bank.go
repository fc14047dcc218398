package detect

import (
	"math"

	"anomalia/internal/health"
	"anomalia/internal/space"
)

// ThresholdBank is the struct-of-arrays form of a fleet of Threshold
// detectors sharing one delta: n devices × d services held as
// device-major n×d slabs instead of n·d heap detectors behind n
// Devices, so one tick is one flat pass per shard with no interface
// call. last holds each detector's previous sample and NaN while it is
// untrained: |x − NaN| > delta is false, which is Threshold's
// first-sample rule, so training needs no separate bit. A Step stages
// the samples it consumes in a second slab and Commit publishes them
// with a pointer swap, so a tick that is rejected after its Step
// leaves every detector as it was.
//
// A bank is not safe for concurrent use.
type ThresholdBank struct {
	d          int
	delta      float64
	last, next []float64
	w          *Walker
}

// NewThresholdBank returns the bank equivalent of devs, sharded over a
// pool of workers like NewWalker, when every device is equally wide and
// every detector is an untrained *Threshold with one shared delta.
// Otherwise it returns nil, and devs run in a DeviceBank.
func NewThresholdBank(devs []*Device, workers int) *ThresholdBank {
	if len(devs) == 0 {
		return nil
	}
	first, ok := devs[0].detectors[0].(*Threshold)
	if !ok {
		return nil
	}
	d := len(devs[0].detectors)
	for _, dev := range devs {
		if len(dev.detectors) != d {
			return nil
		}
		for _, det := range dev.detectors {
			if t, ok := det.(*Threshold); !ok || t.trained || t.delta != first.delta {
				return nil
			}
		}
	}
	b := &ThresholdBank{
		d:     d,
		delta: first.delta,
		last:  make([]float64, len(devs)*d),
		next:  make([]float64, len(devs)*d),
		w:     NewWalker(workers),
	}
	b.Reset()
	return b
}

// Step runs the fused detection pass over rows, one row per device,
// sharded like Walker.WalkSkip. Device dev writes into clean[dev]
// whether row dev is clean — present, d wide and finite. With a nil
// tracker a clean row is detected on and any other row, nil included,
// parks the device. With a tracker the clean bit first runs the
// device's health transition, and the disposition picks what the
// device detects on: its own row (Consume), its position in prev
// (Hold), or nothing (Skip, which parks it). The shards' counter
// changes reach the tracker after the pass, in Walker's per-worker
// delta slots.
//
// Detecting on a row clamps it into [0,1]^d in cur's slot of the
// device, tests it against the device's previous samples (abnormal when
// any service jumped by more than delta) and stages it as its next
// previous samples. A parked device's detectors stay as they are and
// its slot of cur takes its position in prev, or the origin when prev
// is nil. Step appends the abnormal ids to out in ascending order and
// returns them with the number of clean rows. Until Commit, the staged
// samples are invisible: a second Step replaces them.
func (b *ThresholdBank) Step(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, out []int) ([]int, int) {
	return b.w.step(b, rows, prev, cur, t, clean, out)
}

func (b *ThresholdBank) stepRange(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, lo, hi int, flagged []int) ([]int, int, health.Delta) {
	d, delta := b.d, b.delta
	n := 0
	// The shard's health delta stays local until the range is done:
	// the workers' slots share cache lines.
	var hd health.Delta
	for dev := lo; dev < hi; dev++ {
		row, dst := rows[dev], cur.At(dev)
		last, next := b.last[dev*d:(dev+1)*d], b.next[dev*d:(dev+1)*d]
		ok := cleanRow(row, d)
		clean[dev] = ok
		if ok {
			n++
		}
		if t != nil {
			row = pick(t.Transition(dev, ok, &hd), row, dev, prev)
			ok = row != nil
		}
		if !ok {
			copy(next, last)
			park(dst, prev, dev)
			continue
		}
		abnormal := false
		for i, x := range row {
			abnormal = abnormal || math.Abs(x-last[i]) > delta
			next[i] = x
			// space.Point.Clamp, for a finite x.
			switch {
			case x < 0:
				x = 0
			case x > 1:
				x = 1
			}
			dst[i] = x
		}
		if abnormal {
			flagged = append(flagged, dev)
		}
	}
	return flagged, n, hd
}

// pick returns the row device dev detects on under its health
// disposition: its own (Consume), its position in prev (Hold), or nil
// to park it (Skip, or Hold on a tracker that consumed reports while no
// tick committed). Callers run Transition, so its fast path inlines.
func pick(disp health.Disposition, row []float64, dev int, prev *space.State) []float64 {
	switch disp {
	case health.Consume:
		return row
	case health.Hold:
		if prev != nil {
			return prev.At(dev)
		}
	}
	return nil
}

// park holds device dev's slot dst of the current state at its position
// in prev, or the origin when prev is nil, so a later re-admission
// window reads a deterministic trajectory, never recycled garbage.
func park(dst []float64, prev *space.State, dev int) {
	if prev != nil {
		copy(dst, prev.At(dev))
	} else {
		clear(dst)
	}
}

// Commit makes the last Step's staged samples the detectors' state.
func (b *ThresholdBank) Commit() { b.last, b.next = b.next, b.last }

// Reject explains the lowest unclean row of a snapshot that Step
// graded into clean, with the error Walker.Walk reports for
// it. At least one row must be unclean.
func (b *ThresholdBank) Reject(samples [][]float64, clean []bool) error {
	return rejectRow(samples, clean, func(int) int { return b.d })
}

// Reset returns every detector to its untrained state.
func (b *ThresholdBank) Reset() {
	for i := range b.last {
		b.last[i] = math.NaN()
	}
}

// DeviceBank runs a fleet of heap Devices — any detector family, or a
// mix — under ThresholdBank's Step contract. A Device updates its
// detectors in place, so a Step cannot stage what it consumes: a strict
// Step updates no detector unless every row is clean, and Commit has
// nothing to publish.
//
// A DeviceBank is not safe for concurrent use.
type DeviceBank struct {
	devs []*Device
	w    *Walker
}

// NewDeviceBank returns the bank of devs, sharded over a pool of
// workers like NewWalker.
func NewDeviceBank(devs []*Device, workers int) *DeviceBank {
	return &DeviceBank{devs: devs, w: NewWalker(workers)}
}

// Step is ThresholdBank.Step over the Devices: detecting on a row
// clamps it into cur's slot of the device and feeds it raw to the
// device's Update. With a nil tracker Step classifies every row first,
// and an unclean one ends it there: it returns out emptied with the
// number of clean rows, no detector updated and cur unwritten.
func (b *DeviceBank) Step(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, out []int) ([]int, int) {
	if t == nil {
		if n := b.w.Classify(b.devs, rows, clean); n < len(b.devs) {
			return out[:0], n
		}
	}
	return b.w.step(b, rows, prev, cur, t, clean, out)
}

func (b *DeviceBank) stepRange(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, lo, hi int, flagged []int) ([]int, int, health.Delta) {
	n := 0
	var hd health.Delta
	for dev := lo; dev < hi; dev++ {
		row, dst, dv := rows[dev], cur.At(dev), b.devs[dev]
		// A strict Step has classified every row clean already.
		ok := t == nil || cleanRow(row, len(dv.detectors))
		clean[dev] = ok
		if ok {
			n++
		}
		if t != nil {
			row = pick(t.Transition(dev, ok, &hd), row, dev, prev)
			ok = row != nil
		}
		if !ok {
			park(dst, prev, dev)
			continue
		}
		copy(dst, row)
		dst.Clamp()
		// Update fails only on a width mismatch, and row is clean or a
		// held position of the state's width.
		if abnormal, _ := dv.Update(row); abnormal {
			flagged = append(flagged, dev)
		}
	}
	return flagged, n, hd
}

// Commit does nothing: Step has already updated the detectors.
func (b *DeviceBank) Commit() {}

// Reject explains the lowest unclean row of a snapshot that a strict
// Step graded into clean, with the error Walker.Walk reports for it.
// At least one row must be unclean.
func (b *DeviceBank) Reject(samples [][]float64, clean []bool) error {
	return rejectRow(samples, clean, func(dev int) int { return len(b.devs[dev].detectors) })
}

// Reset returns every detector to its untrained state.
func (b *DeviceBank) Reset() {
	for _, dv := range b.devs {
		dv.Reset()
	}
}
