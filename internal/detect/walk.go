package detect

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"anomalia/internal/health"
	"anomalia/internal/par"
	"anomalia/internal/slab"
	"anomalia/internal/space"
)

// ErrSample is returned when a snapshot row cannot be consumed as-is: a
// width mismatch, or a non-finite QoS value that would poison detector
// state (NaN slips through interval tests — v < 0 || v > 1 is false for
// NaN — so finiteness is tested by name). Walk reports it before any
// detector has been updated.
var ErrSample = errors.New("detect: invalid sample")

// minShard is the smallest per-worker device range worth a goroutine:
// below it the spawn/join overhead exceeds the detector work itself, so
// a small fleet runs serially.
const minShard = 2048

// Walker shards the per-device detection walk of one snapshot across a
// fixed pool size. The error-detection functions a_k(j) are independent
// local tests (Section III-A), which makes the walk embarrassingly
// parallel per device: Walker slices the fleet into contiguous id
// ranges, one per worker, and concatenates the per-worker abnormal-id
// buffers in range order, so the merged abnormal set is byte-identical
// to a serial walk whatever the worker count.
//
// A Walker's buffers are reused across snapshots; it is not safe for
// concurrent use.
type Walker struct {
	workers int
	// bufs are the per-worker abnormal windows: the flagged ids, and a
	// bank Step's rows of them. Each starts empty and keeps the capacity
	// it grows to, so a quiet tick holds a few dozen ids per worker, not
	// a share of the fleet.
	bufs   []Window
	errs   []error
	counts []int
	// deltas are the per-worker health counter changes of a bank's
	// Step that runs the health transitions.
	deltas []health.Delta
	// bad holds each range's lowest unclean row, or −1, of a check or
	// a strict Step. A strict Step's ranges meet at graded, so none
	// writes before every range is graded.
	bad    []int
	graded sync.WaitGroup
	// job is the Step in flight, which stepShard reads, cls the
	// Classify and chk the check in flight, which classifyShard and
	// checkShard read. NewWalker binds the shard functions once, so
	// none fans out through a closure allocated per call.
	job           stepJob
	stepShard     func(i, lo, hi int)
	cls           classifyJob
	classifyShard func(i, lo, hi int)
	chk           checkJob
	checkShard    func(i, lo, hi int)
}

// Window is the abnormal part of one bank Step: the flagged devices in
// ascending order and, row i for device Abnormal[i], its committed
// position before the Step (Prev) and after it (Cur), row-major and d
// wide. Its slices are recycled by the next Step that writes it.
type Window struct {
	Abnormal  []int
	Prev, Cur []float64
}

// reset empties w, keeping its capacity under the shrink rule of
// package slab; the need is what the last window used.
func (w *Window) reset() {
	w.Abnormal = slab.Of(w.Abnormal, len(w.Abnormal))[:0]
	w.Prev, w.Cur = slab.Of(w.Prev, len(w.Prev))[:0], slab.Of(w.Cur, len(w.Cur))[:0]
}

// classifyJob holds the arguments of one Classify for its shards:
// samples graded d wide into mask.
type classifyJob struct {
	samples [][]float64
	d       int
	mask    []bool
}

// checkJob holds the arguments of one check for its shards: rows
// graded d wide.
type checkJob struct {
	rows [][]float64
	d    int
}

// stepJob holds the arguments of one bank Step for its shards: its
// rows, which a strict Step grades d wide first and a partial one as
// it goes, and the tracker t, if any, whose health transition each
// device then runs.
type stepJob struct {
	checkJob
	b         ranger
	pos       *space.State
	committed bool
	strict    bool
	t         *health.Tracker
	ranges    int
}

// NewWalker returns a walker with the given pool size; workers <= 0
// selects GOMAXPROCS.
func NewWalker(workers int) *Walker {
	workers = par.Workers(workers, math.MaxInt)
	w := &Walker{
		workers: workers,
		bufs:    make([]Window, workers),
		errs:    make([]error, workers),
		counts:  make([]int, workers),
		deltas:  make([]health.Delta, workers),
		bad:     make([]int, workers),
	}
	w.stepShard = w.runStep
	w.classifyShard = w.runClassify
	w.checkShard = w.runCheck
	return w
}

// Walk feeds row j of samples to device j — exactly one Update per
// device — and appends the ids whose abnormal flag a_k(j) fired to out
// in ascending order, reusing out's storage. Every row is validated
// (the fleet's width, and finiteness) before the first detector update,
// so a non-nil error means no detector state changed. Every device of
// devs must be equally wide.
//
// visit, when non-nil, runs once per device inside the same sharded
// pass, before that device's Update. Shards are disjoint contiguous id
// ranges, so visit may write to per-device slots of a shared structure
// without synchronization, but must not touch state shared across
// devices.
//
// Walk is the strict policy over the degraded path's two steps: it
// classifies every row, rejects the snapshot on any unclean one, and
// otherwise walks it with WalkSkip.
func (w *Walker) Walk(devs []*Device, samples [][]float64, visit func(dev int, row []float64), out []int) ([]int, error) {
	n := len(devs)
	if len(samples) != n {
		return out[:0], fmt.Errorf("snapshot has %d rows, want %d: %w", len(samples), n, ErrSample)
	}
	if err := w.check(samples, width(devs)); err != nil {
		return out[:0], err
	}
	return w.WalkSkip(devs, samples, visit, out)
}

// check grades every row like Classify, sharded, and explains the
// lowest unclean one — the error a serial validation pass would report
// first, whatever the worker count — or returns nil when every row is
// clean against width d. check reads the rows and writes nothing else.
func (w *Walker) check(rows [][]float64, d int) error {
	w.chk = checkJob{rows: rows, d: d}
	workers := par.Ranges(len(rows), w.workers, minShard, w.checkShard)
	w.chk = checkJob{} // hold no caller rows between calls
	return reject(rows, w.bad[:workers], d)
}

// runCheck is checkShard: it grades range i, [lo, hi), of the check in
// w.chk into worker i's slot of bad.
func (w *Walker) runCheck(i, lo, hi int) {
	w.bad[i] = w.chk.unclean(lo, hi)
}

// unclean returns the lowest row of [lo, hi) that is not clean, or −1.
func (j *checkJob) unclean(lo, hi int) int {
	for dev := lo; dev < hi; dev++ {
		if !clean(j.rows[dev], j.d) {
			return dev
		}
	}
	return -1
}

// clean is the one row grader: it reports whether row is d wide and
// finite in every value. The sum of v−v over the row is NaN exactly
// when some value is not finite. A nil row is never clean: every
// fleet is at least one service wide.
func clean(row []float64, d int) bool {
	if len(row) != d {
		return false
	}
	var nan float64
	for _, x := range row {
		nan += x - x
	}
	return nan == 0
}

// width returns the one width of the fleet devs, whose devices are
// all as wide as the first.
func width(devs []*Device) int {
	if len(devs) == 0 {
		return 0
	}
	return devs[0].Services()
}

// reject explains the lowest unclean row that bad, the ranges' lowest
// unclean rows in range order, names against width d, or returns nil
// when it names none.
func reject(rows [][]float64, bad []int, d int) error {
	for _, dev := range bad {
		if dev >= 0 {
			return rejectRow(rows[dev], dev, d)
		}
	}
	return nil
}

// rejectRow explains why row, device dev's, is not clean against its
// width of want services.
func rejectRow(row []float64, dev, want int) error {
	if len(row) == want {
		for svc, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("device %d service %d: non-finite QoS %v: %w",
					dev, svc, v, ErrSample)
			}
		}
	}
	return fmt.Errorf("device %d has %d coords, want %d: %w", dev, len(row), want, ErrSample)
}

// Classify grades every row of a possibly-degraded snapshot without
// touching any detector, sharded like Walk: clean[dev] is set to
// whether row dev is present (non-nil), matches the fleet's width —
// every device of devs must be equally wide — and is finite in every
// coordinate. The degraded ingest path treats malformed and missing
// reports identically — neither carries a usable measurement — so
// classification folds both into one bit instead of reporting an
// error. Returns the number of clean rows. len(samples)
// and len(clean) must equal len(devs).
func (w *Walker) Classify(devs []*Device, samples [][]float64, clean []bool) int {
	w.cls = classifyJob{samples: samples, d: width(devs), mask: clean}
	workers := par.Ranges(len(devs), w.workers, minShard, w.classifyShard)
	w.cls = classifyJob{} // hold no caller rows between calls
	n := 0
	for _, c := range w.counts[:workers] {
		n += c
	}
	return n
}

// runClassify is classifyShard: it grades range i, [lo, hi), of the
// Classify in w.cls and counts its clean rows into worker i's slot.
func (w *Walker) runClassify(i, lo, hi int) {
	j := &w.cls
	c := 0
	for dev := lo; dev < hi; dev++ {
		j.mask[dev] = clean(j.samples[dev], j.d)
		if j.mask[dev] {
			c++
		}
	}
	w.counts[i] = c
}

// fan runs f over contiguous device ranges of [0, n), one per worker:
// range i, run by worker i, appends its flagged ids to its own
// recycled buffer and returns a count. The buffers merge into out in
// range order and the counts sum, so the result is byte-identical to
// one serial pass over [0, n); the error is the lowest range's.
func (w *Walker) fan(n int, out []int, f func(lo, hi int, flagged []int) ([]int, int, error)) ([]int, int, error) {
	workers := par.Ranges(n, w.workers, minShard, func(i, lo, hi int) {
		b := &w.bufs[i]
		b.reset()
		b.Abnormal, w.counts[i], w.errs[i] = f(lo, hi, b.Abnormal)
	})
	win := Window{Abnormal: out}
	total := w.merge(workers, &win)
	for _, err := range w.errs[:workers] {
		if err != nil {
			return win.Abnormal, total, err
		}
	}
	return win.Abnormal, total, nil
}

// merge writes the first workers per-worker windows into win in range
// order and sums their counts. The per-worker windows are one slab
// under the shrink rule of package slab, whose need is win's: past it
// all of them are dropped, so a huge window's shares do not stay
// resident one per worker.
func (w *Walker) merge(workers int, win *Window) int {
	win.reset()
	total, have := 0, 0
	for i := range workers {
		b := &w.bufs[i]
		win.Abnormal = append(win.Abnormal, b.Abnormal...)
		win.Prev = append(win.Prev, b.Prev...)
		win.Cur = append(win.Cur, b.Cur...)
		total += w.counts[i]
	}
	for _, b := range w.bufs {
		have += cap(b.Abnormal) + cap(b.Prev) + cap(b.Cur)
	}
	if !slab.Keep(8*uintptr(have), 8*uintptr(len(win.Abnormal)+len(win.Prev)+len(win.Cur))) {
		clear(w.bufs)
	}
	return total
}

// ranger is a bank's Step over one device range [lo, hi) of the Step
// j: it appends the range's abnormal devices and their rows to win and
// returns the range's clean-row count and health delta.
type ranger interface {
	stepRange(j *stepJob, lo, hi int, win *Window) (int, health.Delta)
}

// step runs b's Step over every row like fan, keeping each range's
// window and health delta in its worker's slots until the pass is
// done, then merges the windows into win and, when there is a
// tracker, folds the deltas into t. A strict Step grades the rows d
// wide first, in the same pass: each range grades its own rows, waits
// until every range has, and steps only if all are clean; otherwise
// step writes nothing and explains the lowest unclean row.
func (w *Walker) step(b ranger, rows [][]float64, pos *space.State, committed, strict bool, t *health.Tracker, d int, win *Window) (int, error) {
	w.job = stepJob{checkJob: checkJob{rows: rows, d: d}, b: b, pos: pos, committed: committed, strict: strict, t: t}
	if strict {
		w.job.ranges = par.RangeCount(len(rows), w.workers, minShard)
		w.graded.Add(w.job.ranges)
	}
	workers := par.Ranges(len(rows), w.workers, minShard, w.stepShard)
	w.job = stepJob{} // hold no caller rows or states between Steps
	total := w.merge(workers, win)
	if strict {
		if err := reject(rows, w.bad[:workers], d); err != nil {
			return 0, err
		}
	}
	if t != nil {
		for i := range w.deltas {
			t.Apply(&w.deltas[i])
		}
		clear(w.deltas)
	}
	return total, nil
}

// runStep is stepShard: it runs range i, [lo, hi), of the Step in w.job
// into worker i's slots, once every range is graded clean if the Step
// is strict.
func (w *Walker) runStep(i, lo, hi int) {
	j, b := &w.job, &w.bufs[i]
	b.reset()
	w.counts[i] = 0
	if j.strict {
		w.bad[i] = j.unclean(lo, hi)
		w.graded.Done()
		w.graded.Wait()
		for _, bad := range w.bad[:j.ranges] {
			if bad >= 0 {
				return
			}
		}
	}
	w.counts[i], w.deltas[i] = j.b.stepRange(j, lo, hi, b)
}

// WalkSkip runs the detector walk of one pre-classified partial
// snapshot: row j of rows is fed to device j unless it is nil, in
// which case device j's detectors are left untouched for this tick
// and the device cannot be flagged. visit runs for every device — nil
// rows included, before any Update — so the caller can park an
// excluded device's slot of the shared state. The abnormal set merges
// in the same shard order as Walk, byte-identical to a serial pass.
//
// Rows must already be validated (Classify): unlike Walk there is no
// validation phase, so a detector error surfaces with the offending
// shard partially consumed.
func (w *Walker) WalkSkip(devs []*Device, rows [][]float64, visit func(dev int, row []float64), out []int) ([]int, error) {
	out = out[:0]
	n := len(devs)
	if len(rows) != n {
		return out, fmt.Errorf("snapshot has %d rows, want %d: %w", len(rows), n, ErrSample)
	}
	out, _, err := w.fan(n, out, func(lo, hi int, flagged []int) ([]int, int, error) {
		flagged, err := walkSkipRange(devs, rows, visit, lo, hi, flagged)
		return flagged, 0, err
	})
	return out, err
}

// walkSkipRange runs the serial walk over [lo, hi), appending flagged
// ids; nil rows are visited but not fed to their detectors.
func walkSkipRange(devs []*Device, rows [][]float64, visit func(dev int, row []float64), lo, hi int, flagged []int) ([]int, error) {
	for dev := lo; dev < hi; dev++ {
		row := rows[dev]
		if visit != nil {
			visit(dev, row)
		}
		if row == nil {
			continue
		}
		abnormal, err := devs[dev].Update(row)
		if err != nil {
			return flagged, fmt.Errorf("device %d: %w", dev, err)
		}
		if abnormal {
			flagged = append(flagged, dev)
		}
	}
	return flagged, nil
}
