package detect

import (
	"math"

	"anomalia/internal/health"
	"anomalia/internal/space"
)

// ThresholdBank is the column form of a fleet of Threshold detectors
// sharing one delta: n devices × d services with no heap detector and
// no copy of any sample. A detector's previous sample is its device's
// position in the committed state, so Step reads it from prev: under
// the clamp-once policy that position is exactly the last sample the
// device detected on. The bank keeps one trained byte per device —
// Threshold's first-sample rule — and a flag set once every device is
// trained, after which the bytes are not read.
//
// A strict Step (nil tracker) writes nothing but the caller's cur, so a
// tick rejected after its Step leaves the bank as it was; the caller
// reports an accepted strict tick, which fed every device, with
// TrainAll. A partial Step, which is never rejected, marks each device
// it detects on trained as it goes.
//
// A bank is not safe for concurrent use.
type ThresholdBank struct {
	d       int
	delta   float64
	trained []byte
	all     bool
	w       *Walker
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
	return NewUniformThresholdBank(len(devs), d, first.delta, workers)
}

// NewUniformThresholdBank returns the bank of n devices, each running d
// untrained Threshold detectors with one shared delta, sharded over a
// pool of workers like NewWalker: the bank NewThresholdBank returns for
// such devices, built without them. delta must be a valid Threshold
// delta.
func NewUniformThresholdBank(n, d int, delta float64, workers int) *ThresholdBank {
	return &ThresholdBank{
		d:       d,
		delta:   delta,
		trained: make([]byte, n),
		w:       NewWalker(workers),
	}
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
// prev is the state the last accepted Step wrote, nil before the
// first. Detecting on a row clamps it into [0,1]^d in cur's slot of the
// device and, once the device is trained, tests it against the
// device's position in prev: abnormal when any service jumped by more
// than delta. A held device detects on its own position and so is
// never abnormal. A parked device's slot of cur takes its position in
// prev, or the origin when prev is nil. Step appends the abnormal ids
// to out in ascending order and returns them with the number of clean
// rows.
func (b *ThresholdBank) Step(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, out []int) ([]int, int) {
	return b.w.step(b, rows, prev, cur, t, clean, out)
}

func (b *ThresholdBank) stepRange(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, lo, hi int, flagged []int) ([]int, int, health.Delta) {
	d, delta, all, trained := b.d, b.delta, b.all, b.trained
	// Only a partial Step, which cannot be rejected, trains devices.
	train := t != nil && !all
	n := 0
	// The shard's health delta stays local until the range is done:
	// the workers' slots share cache lines.
	var hd health.Delta
	for dev := lo; dev < hi; dev++ {
		row, dst := rows[dev], cur.At(dev)
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
			park(dst, prev, dev)
			continue
		}
		for i, x := range row {
			// space.Point.Clamp, for a finite x.
			switch {
			case x < 0:
				x = 0
			case x > 1:
				x = 1
			}
			dst[i] = x
		}
		if prev == nil || !all && trained[dev] == 0 {
			if train {
				trained[dev] = 1
			}
			continue
		}
		last := prev.At(dev)
		abnormal := false
		for i, x := range dst {
			abnormal = abnormal || math.Abs(x-last[i]) > delta
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

// TrainAll records that the Step just accepted fed every device its
// own row — a strict tick, or a fully clean partial tick over an
// all-live fleet — so every detector is trained until Reset.
func (b *ThresholdBank) TrainAll() { b.all = true }

// Reject explains the lowest unclean row of a snapshot that Step
// graded into clean, with the error Walker.Walk reports for
// it. At least one row must be unclean.
func (b *ThresholdBank) Reject(samples [][]float64, clean []bool) error {
	return rejectRow(samples, clean, func(int) int { return b.d })
}

// Reset returns every detector to its untrained state.
func (b *ThresholdBank) Reset() {
	clear(b.trained)
	b.all = false
}

// DeviceBank runs a fleet of heap Devices — any detector family, or a
// mix — under ThresholdBank's Step contract. A Device updates its
// detectors in place, so a strict Step updates no detector unless
// every row is clean, and TrainAll has nothing to record.
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
// clamps it into cur's slot of the device and feeds that clamped
// position to the device's Update, so a held device's detectors see
// the value they last consumed. With a nil tracker Step classifies
// every row first, and an unclean one ends it there: it returns out
// emptied with the number of clean rows, no detector updated and cur
// unwritten.
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
		// Update fails only on a width mismatch, and dst has the
		// state's width.
		if abnormal, _ := dv.Update(dst); abnormal {
			flagged = append(flagged, dev)
		}
	}
	return flagged, n, hd
}

// TrainAll does nothing: each Device trains in its own Update.
func (b *DeviceBank) TrainAll() {}

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
