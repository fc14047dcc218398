package detect

import (
	"math"

	"anomalia/internal/health"
	"anomalia/internal/space"
)

// ThresholdBank is the column form of a fleet of Threshold detectors
// sharing one delta: n devices × d services with no heap detector and
// no copy of any sample. A detector's previous sample is its device's
// committed position, so Step reads it from the one position slab it
// then overwrites: under the clamp-once policy that position is exactly
// the last sample the device detected on. The bank keeps no state per
// device at all. Threshold's first-sample rule reads the health
// tracker's last-known marks: a device is trained once it has a mark,
// since the tick that first consumed its report marked it. With no
// tracker, every device is trained once a Step has committed.
//
// Step runs one kernel whatever d is. Each shard takes its range of
// the slab as one flat span (space.State.Span) and runs a tight loop
// over the common row: d wide, every value in [+0, 1] by one integer
// test of its bits, from a live, marked device and within delta of its
// committed position in every service. The loop tests every value of
// such a row before it copies the row over the position, with no
// tracker call. The first row it does not take — a jump, a fault, an
// impaired or unmarked device, or any row before a position is
// committed — runs the general path for that row alone: the row is
// graded; the device's mark is read, and then its health transition
// picks what it detects on, which marks a device it consumes; only
// then is the clamped row written, and it is tested for a jump from
// the position when the device was marked before the transition. A
// flagged device's position is copied into the shard's window before
// the write and after it. The tight loop then resumes.
//
// A strict Step grades the whole snapshot before it writes anything
// and rejects it on any unclean row; that is all strict means. An
// accepted Step, strict or partial, runs the health transitions when
// there is a tracker, which marks each device it consumes as it goes.
//
// A bank is not safe for concurrent use.
type ThresholdBank struct {
	d     int
	delta float64
	w     *Walker
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
	return NewUniformThresholdBank(d, first.delta, workers)
}

// NewUniformThresholdBank returns the bank of devices each running d
// untrained Threshold detectors with one shared delta, sharded over a
// pool of workers like NewWalker: the bank NewThresholdBank returns for
// such devices, built without them. delta must be a valid Threshold
// delta.
func NewUniformThresholdBank(d int, delta float64, workers int) *ThresholdBank {
	return &ThresholdBank{d: d, delta: delta, w: NewWalker(workers)}
}

// Step runs the fused detection pass over rows, one row per device,
// sharded like Walker.WalkSkip, in place over pos: device dev's slot
// of pos holds its committed position on entry and its new one on
// return. A row is clean when it is present, d wide and finite. A
// strict Step grades every row before it writes anything, in the same
// sharded pass: when a row is unclean it writes nothing — no position,
// no window — and returns the error Walker.Walk reports for the lowest
// such row. Otherwise the Step runs as a partial one does: each
// device's health transition runs on t with the clean bit, and the
// disposition picks what the device detects on: its own row (Consume),
// its committed position (Hold), or nothing (Skip, which parks it).
// The shards' counter changes reach the tracker after the pass, in
// Walker's per-worker delta slots. t may be nil: the fleet is then all
// live, a clean row is consumed and an unclean one parks its device,
// and every device is trained.
//
// committed says whether pos holds an accepted Step's positions; before
// the first, no jump is tested, a held device is parked, and every slot
// must hold the origin. Detecting on a row clamps it into [0,1]^d and
// writes it over the device's slot and, when the device is trained,
// tests it against the position it replaces: abnormal when any service
// jumped by more than delta. A held device detects on its own position
// and so is never abnormal. A parked device keeps its slot. Step writes
// the abnormal devices, ascending, and their positions before and after
// it into win, and returns the number of clean rows.
func (b *ThresholdBank) Step(rows [][]float64, pos *space.State, committed, strict bool, t *health.Tracker, win *Window) (int, error) {
	return b.w.step(b, rows, pos, committed, strict, t, b.d, win)
}

func (b *ThresholdBank) stepRange(j *stepJob, lo, hi int, win *Window) (int, health.Delta) {
	d, delta, committed, strict, t := j.d, b.delta, j.committed, j.strict, j.t
	span := j.pos.Span(lo, hi)
	rows := j.rows[lo:hi]
	// The range's tracker states and last-known marks are nil when
	// every device is live or marked, or when there is no tracker.
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
		if committed {
			k := quiet(rows, span, d, delta, states, seen, i)
			if n += k - i; k == len(rows) {
				break
			}
			i = k
		}
		dev := lo + i
		p := span[i*d : (i+1)*d]
		row := rows[i]
		// A strict Step has graded every row clean already.
		ok := strict || clean(row, d)
		if ok {
			n++
		}
		// The mark is read before the transition, which marks a
		// device it consumes: a device's first sample only trains it.
		trained := seen == nil || seen[i]
		disp := health.Consume
		if t != nil {
			disp = t.Transition(dev, ok, &hd)
		}
		consume := ok && disp == health.Consume
		if !consume && (disp != health.Hold || !committed) {
			// Skip, or Hold with no committed position: nothing to
			// detect on, so the device keeps its slot. A held device
			// detects on its committed position, which is no jump.
			continue
		}
		flag := consume && committed && trained && jump(row, p) > delta
		if flag {
			win.Abnormal = append(win.Abnormal, dev)
			win.Prev = append(win.Prev, p...)
		}
		if consume {
			clampRow(p, row)
		}
		if flag {
			win.Cur = append(win.Cur, p...)
		}
	}
	return n, hd
}

// quiet is the kernel's tight loop over rows from i on. It takes the
// common row: d wide, every value's bits at most those of 1.0 — one
// integer test that holds exactly for +0 through 1, so the clamp is the
// identity — from a live, marked device whose every value lies within
// delta of its position in span. Only once every value has passed does
// it copy the row over the position, so a row that fails on a later
// service leaves its position whole for the general path. It returns
// the first row it does not take, which stepRange runs. A nil states
// or seen stands for devices all live or all marked. The loop calls
// nothing, writes nothing but positions and reads no field of the bank
// or the tracker, which keeps its live values few.
func quiet(rows [][]float64, span []float64, d int, delta float64, states []health.State, seen []bool, i int) int {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	for ; i < len(rows); i++ {
		row := rows[i]
		if len(row) != d || states != nil && states[i] != health.Live || seen != nil && !seen[i] {
			return i
		}
		off := i * d
		p := span[off : off+len(row)]
		for k, x := range row {
			if math.Float64bits(x) > one || math.Abs(x-p[k]) > delta {
				return i
			}
		}
		for k, x := range row {
			p[k] = x
		}
	}
	return i
}

// jump returns the largest |c − p[k]| over the values c of the clean
// row clamped as space.Point.Clamp clamps a finite value. len(p) must
// be len(row).
func jump(row, p []float64) float64 {
	p = p[:len(row)]
	var largest float64
	for k, x := range row {
		if j := math.Abs(clamp(x) - p[k]); j > largest {
			largest = j
		}
	}
	return largest
}

// clampRow writes row, clamped into [0,1] value by value, into dst.
// len(dst) must be len(row).
func clampRow(dst, row []float64) {
	dst = dst[:len(row)]
	for k, x := range row {
		dst[k] = clamp(x)
	}
}

// clamp is space.Point.Clamp's rule for one finite value.
func clamp(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// Reset does nothing: the bank's detectors are untrained again once
// its caller resets the tracker's marks and the positions.
func (b *ThresholdBank) Reset() {}

// DeviceBank runs a fleet of heap Devices — any detector family, or a
// mix, every device equally wide — under ThresholdBank's Step
// contract. A Device trains its detectors in its own Update, so the
// bank reads no mark.
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
// clamps it over the device's slot of pos and feeds that clamped
// position to the device's Update, so a held device's detectors see
// the value they last consumed.
func (b *DeviceBank) Step(rows [][]float64, pos *space.State, committed, strict bool, t *health.Tracker, win *Window) (int, error) {
	return b.w.step(b, rows, pos, committed, strict, t, width(b.devs), win)
}

func (b *DeviceBank) stepRange(j *stepJob, lo, hi int, win *Window) (int, health.Delta) {
	n := 0
	var hd health.Delta
	for dev := lo; dev < hi; dev++ {
		row, p, dv := j.rows[dev], j.pos.At(dev), b.devs[dev]
		// A strict Step has graded every row clean already.
		ok := j.strict || clean(row, j.d)
		if ok {
			n++
		}
		if j.t != nil {
			switch j.t.Transition(dev, ok, &hd) {
			case health.Consume:
			case health.Hold:
				// A held device detects on its committed position.
				row, ok = p, j.committed
			default:
				ok = false
			}
		}
		if !ok {
			continue // parked: the device keeps its slot
		}
		// The position before the write is kept in the window and
		// dropped again unless the device is flagged.
		mark := len(win.Prev)
		win.Prev = append(win.Prev, p...)
		copy(p, row)
		p.Clamp()
		// Update fails only on a width mismatch, and p has the
		// state's width.
		if abnormal, _ := dv.Update(p); abnormal {
			win.Abnormal = append(win.Abnormal, dev)
			win.Cur = append(win.Cur, p...)
		} else {
			win.Prev = win.Prev[:mark]
		}
	}
	return n, hd
}

// Reset returns every detector to its untrained state.
func (b *DeviceBank) Reset() {
	for _, dv := range b.devs {
		dv.Reset()
	}
}
