package detect

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"anomalia/internal/health"
	"anomalia/internal/par"
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
	flags   [][]int
	errs    []error
	counts  []int
	// deltas are the per-worker health counter changes of a bank's
	// Step that runs the health transitions.
	deltas []health.Delta
	clean  []bool
	// job is the Step in flight, which stepShard reads, and cls the
	// Classify in flight, which classifyShard reads. NewWalker binds
	// both shard functions once, so neither fans out through a closure
	// allocated per call.
	job           stepJob
	stepShard     func(i, lo, hi int)
	cls           classifyJob
	classifyShard func(i, lo, hi int)
}

// classifyJob holds the arguments of one Classify for its shards.
type classifyJob struct {
	devs    []*Device
	samples [][]float64
	clean   []bool
}

// stepJob holds the arguments of one bank Step for its shards.
type stepJob struct {
	b         ranger
	rows      [][]float64
	prev, cur *space.State
	t         *health.Tracker
	clean     []bool
}

// NewWalker returns a walker with the given pool size; workers <= 0
// selects GOMAXPROCS.
func NewWalker(workers int) *Walker {
	workers = par.Workers(workers, math.MaxInt)
	w := &Walker{
		workers: workers,
		flags:   make([][]int, workers),
		errs:    make([]error, workers),
		counts:  make([]int, workers),
		deltas:  make([]health.Delta, workers),
	}
	w.stepShard = w.runStep
	w.classifyShard = w.runClassify
	return w
}

// Walk feeds row j of samples to device j — exactly one Update per
// device — and appends the ids whose abnormal flag a_k(j) fired to out
// in ascending order, reusing out's storage. Every row is validated
// (width and finiteness) before the first detector update, so a non-nil
// error means no detector state changed.
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
	if len(w.clean) < n {
		w.clean = make([]bool, n)
	}
	if w.Classify(devs, samples, w.clean[:n]) < n {
		return out[:0], rejectRow(samples, w.clean[:n], func(dev int) int { return len(devs[dev].detectors) })
	}
	return w.WalkSkip(devs, samples, visit, out)
}

// rejectRow explains the lowest unclean row — the error a serial
// validation pass would report first, whatever the worker count.
// width gives a device's service count.
func rejectRow(samples [][]float64, clean []bool, width func(dev int) int) error {
	dev := slices.Index(clean, false)
	row, want := samples[dev], width(dev)
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
// whether row dev is present (non-nil), matches device dev's width,
// and is finite in every coordinate. The degraded ingest path treats
// malformed and missing reports identically — neither carries a usable
// measurement — so classification folds both into one bit instead of
// reporting an error. Returns the number of clean rows. len(samples)
// and len(clean) must equal len(devs).
func (w *Walker) Classify(devs []*Device, samples [][]float64, clean []bool) int {
	w.cls = classifyJob{devs: devs, samples: samples, clean: clean}
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
		j.clean[dev] = cleanRow(j.samples[dev], len(j.devs[dev].detectors))
		if j.clean[dev] {
			c++
		}
	}
	w.counts[i] = c
}

// cleanRow reports whether row is present, want wide and finite in
// every coordinate.
func cleanRow(row []float64, want int) bool {
	if row == nil || len(row) != want {
		return false
	}
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// fan runs f over contiguous device ranges of [0, n), one per worker:
// range i, run by worker i, appends its flagged ids to its own
// recycled buffer and returns a count. The buffers merge into out in
// range order and the counts sum, so the result is byte-identical to
// one serial pass over [0, n); the error is the lowest range's.
func (w *Walker) fan(n int, out []int, f func(lo, hi int, flagged []int) ([]int, int, error)) ([]int, int, error) {
	workers := par.Ranges(n, w.workers, minShard, func(i, lo, hi int) {
		w.flags[i], w.counts[i], w.errs[i] = f(lo, hi, w.flagBuf(i, lo, hi))
	})
	out, total := w.merge(workers, out)
	for _, err := range w.errs[:workers] {
		if err != nil {
			return out, total, err
		}
	}
	return out, total, nil
}

// flagBuf returns worker i's recycled flag buffer, emptied, for the
// range [lo, hi).
func (w *Walker) flagBuf(i, lo, hi int) []int {
	if w.flags[i] == nil {
		return make([]int, 0, (hi-lo)/8+16)
	}
	return w.flags[i][:0]
}

// merge appends the first workers flag buffers to out in range order
// and sums their counts.
func (w *Walker) merge(workers int, out []int) ([]int, int) {
	total := 0
	for i := range workers {
		out = append(out, w.flags[i]...)
		total += w.counts[i]
	}
	return out, total
}

// ranger is a bank's Step over one device range [lo, hi): it appends
// the range's abnormal ids to flagged and returns them with the range's
// clean-row count and health delta.
type ranger interface {
	stepRange(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, lo, hi int, flagged []int) ([]int, int, health.Delta)
}

// step runs b's Step over every row like fan, keeping each range's
// health delta in its worker's slot until the pass is done, then folds
// the deltas into t when it is set.
func (w *Walker) step(b ranger, rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, out []int) ([]int, int) {
	w.job = stepJob{b: b, rows: rows, prev: prev, cur: cur, t: t, clean: clean}
	workers := par.Ranges(len(rows), w.workers, minShard, w.stepShard)
	w.job = stepJob{} // hold no caller rows or states between Steps
	out, total := w.merge(workers, out[:0])
	if t != nil {
		for i := range w.deltas {
			t.Apply(&w.deltas[i])
		}
		clear(w.deltas)
	}
	return out, total
}

// runStep is stepShard: it runs range i, [lo, hi), of the Step in w.job
// into worker i's slots.
func (w *Walker) runStep(i, lo, hi int) {
	j := &w.job
	w.flags[i], w.counts[i], w.deltas[i] = j.b.stepRange(j.rows, j.prev, j.cur, j.t, j.clean, lo, hi, w.flagBuf(i, lo, hi))
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
