package detect

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"anomalia/internal/par"
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
	clean   []bool
}

// NewWalker returns a walker with the given pool size; workers <= 0
// selects GOMAXPROCS.
func NewWalker(workers int) *Walker {
	workers = par.Workers(workers, math.MaxInt)
	return &Walker{
		workers: workers,
		flags:   make([][]int, workers),
		errs:    make([]error, workers),
		counts:  make([]int, workers),
	}
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
		return out[:0], rejectRow(devs, samples, w.clean[:n])
	}
	return w.WalkSkip(devs, samples, visit, out)
}

// rejectRow explains the lowest unclean row — the error a serial
// validation pass would report first, whatever the worker count.
func rejectRow(devs []*Device, samples [][]float64, clean []bool) error {
	dev := slices.Index(clean, false)
	row, want := samples[dev], len(devs[dev].detectors)
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
	workers := par.Ranges(len(devs), w.workers, minShard, func(i, lo, hi int) {
		w.counts[i] = classifyRange(devs, samples, clean, lo, hi)
	})
	total := 0
	for _, c := range w.counts[:workers] {
		total += c
	}
	return total
}

func classifyRange(devs []*Device, samples [][]float64, clean []bool, lo, hi int) int {
	n := 0
	for dev := lo; dev < hi; dev++ {
		row := samples[dev]
		ok := row != nil && len(row) == len(devs[dev].detectors)
		if ok {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
					break
				}
			}
		}
		clean[dev] = ok
		if ok {
			n++
		}
	}
	return n
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
	workers := par.Ranges(n, w.workers, minShard, func(i, lo, hi int) {
		buf := w.flags[i]
		if buf == nil {
			buf = make([]int, 0, (hi-lo)/8+16)
		}
		w.flags[i], w.errs[i] = walkSkipRange(devs, rows, visit, lo, hi, buf[:0])
	})
	for i := 0; i < workers; i++ {
		out = append(out, w.flags[i]...)
	}
	for _, err := range w.errs[:workers] {
		if err != nil {
			return out, err
		}
	}
	return out, nil
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
