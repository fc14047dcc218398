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
// Step runs one kernel whatever d is. Each shard takes its range of
// cur's and prev's coordinate slabs as flat spans (space.State.Span)
// and runs a tight loop over the common row: d wide, every value in
// [+0, 1] by one integer test of its bits, from a live, trained device
// and within delta of its committed position in every service. The
// loop copies such a row into cur with no tracker call. The first row
// it does not take — a jump, a fault, an impaired or untrained device,
// or any row before a state is committed — runs the general path for
// that row alone: one inner loop sums v−v, which is NaN exactly when a
// value is not finite, clamps each value into the device's slot of cur
// and keeps the largest jump from prev, and the device's health
// transition picks what it detects on. The tight loop then resumes.
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
	d, delta := b.d, b.delta
	// Only a partial Step, which cannot be rejected, trains devices.
	train := t != nil && !b.all
	dst := cur.Span(lo, hi)
	// With no committed state no jump is tested, so each row's jump is
	// taken against its own slot and the kernel needs no branch for it.
	last := dst
	if prev != nil {
		last = prev.Span(lo, hi)
	}
	rows, clean = rows[lo:hi], clean[lo:hi]
	// The range's trained bytes, and its tracker states and last-known
	// marks, are nil when every device is trained, live or marked.
	var trained []byte
	if !b.all {
		trained = b.trained[lo:hi:hi]
	}
	var states []health.State
	var seen []bool
	if t != nil {
		states, seen = t.Shard(lo, hi)
	}
	n := 0
	// The shard's health delta stays local until the range is done:
	// the workers' slots share cache lines.
	var hd health.Delta
	for i := 0; i < len(rows); i++ {
		if prev != nil {
			j := quiet(rows, dst, last, d, delta, states, seen, trained, clean, i)
			if n += j - i; j == len(rows) {
				break
			}
			i = j
		}
		dev := lo + i
		out, p := dst[i*d:(i+1)*d], last[i*d:(i+1)*d]
		ok, jump := false, 0.0
		if row := rows[i]; len(row) == d {
			var nan float64
			nan, jump = detectRow(out, row, p)
			ok = nan == 0
		}
		clean[i] = ok
		if ok {
			n++
		}
		disp := health.Consume
		if t != nil {
			disp = t.Transition(dev, ok, &hd)
		}
		switch {
		case ok && disp == health.Consume:
			// out holds the clamped row, jump its largest move.
		case disp == health.Hold && prev != nil:
			// A held device detects on its committed position.
			_, jump = detectRow(out, p, p)
		default:
			// Unclean with no tracker, Skip, or Hold with no committed
			// state: nothing to detect on.
			park(out, prev, dev)
			continue
		}
		if prev == nil || trained != nil && trained[i] == 0 {
			if train {
				trained[i] = 1
			}
			continue
		}
		if jump > delta {
			flagged = append(flagged, dev)
		}
	}
	return flagged, n, hd
}

// quiet is the kernel's tight loop over rows from i on. It takes the
// common row: d wide, every value's bits at most those of 1.0 — one
// integer test that holds exactly for +0 through 1, so the clamp is the
// identity — from a live, trained device whose every value lies within
// delta of its position in last. It copies such a row into dst, grades
// it clean, sets its device's last-known mark and moves on, and returns
// the first row it does not take, which stepRange runs. A nil states,
// seen or trained stands for devices all live, all marked or all
// trained. The loop calls nothing and reads no field of the bank or
// the tracker, which keeps its live values few.
func quiet(rows [][]float64, dst, last []float64, d int, delta float64, states []health.State, seen []bool, trained []byte, clean []bool, i int) int {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	below := -delta
	clean = clean[:len(rows)]
	for ; i < len(rows); i++ {
		row := rows[i]
		if len(row) != d || states != nil && states[i] != health.Live || trained != nil && trained[i] == 0 {
			return i
		}
		off := i * d
		out, p := dst[off:off+len(row)], last[off:off+len(row)]
		for k, x := range row {
			if j := x - p[k]; math.Float64bits(x) > one || j > delta || j < below {
				return i
			}
			out[k] = x
		}
		clean[i] = true
		if seen != nil && !seen[i] {
			seen[i] = true
		}
	}
	return i
}

// detectRow clamps src into out as space.Point.Clamp clamps a finite
// value and returns the sum of v−v over src, which is NaN exactly when
// some coordinate is not finite, with the largest |out[k] − p[k]|.
// len(out) and len(p) must be len(src).
func detectRow(out, src, p []float64) (nan, jump float64) {
	out, p = out[:len(src)], p[:len(src)]
	for k, x := range src {
		nan += x - x
		switch {
		case x < 0:
			x = 0
		case x > 1:
			x = 1
		}
		out[k] = x
		if j := math.Abs(x - p[k]); j > jump {
			jump = j
		}
	}
	return nan, jump
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
