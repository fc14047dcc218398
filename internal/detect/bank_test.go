package detect

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anomalia/internal/health"
	"anomalia/internal/space"
)

// clampRows returns rows with every clean row clamped into [0,1]^d —
// the one value the clamp-once policy feeds a device's detectors and
// its position — and every other row as it is, so a reference walk
// still rejects or skips it.
func clampRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for j, row := range rows {
		out[j] = row
		if oracleClean(row, len(row)) {
			out[j] = space.Point(slices.Clone(row)).Clamp()
		}
	}
	return out
}

// oracleClean is the row grade of the per-device loops the bank's one
// grader replaced: row is present, d wide and finite by name.
func oracleClean(row []float64, d int) bool {
	if row == nil || len(row) != d {
		return false
	}
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkThresholdState fails unless every trained Threshold of devs
// holds its device's position in st as its last sample — the premise
// that lets the bank keep no sample — and returns which devices are
// trained.
func checkThresholdState(t *testing.T, devs []*Device, st *space.State) []bool {
	t.Helper()
	trained := make([]bool, len(devs))
	for j, dev := range devs {
		for svc, det := range dev.detectors {
			th := det.(*Threshold)
			if th.trained && th.last != st.At(j)[svc] {
				t.Fatalf("device %d service %d: last sample %v, committed position %v", j, svc, th.last, st.At(j)[svc])
			}
			trained[j] = th.trained
		}
	}
	return trained
}

// marks returns which devices hold tr's last-known mark: the devices
// the Threshold bank trained.
func marks(tr *health.Tracker) []bool {
	if _, seen := tr.Shard(0, tr.Len()); seen != nil {
		return slices.Clone(seen)
	}
	all := make([]bool, tr.Len())
	for j := range all {
		all[j] = true
	}
	return all
}

// checkWindow fails unless win lists exactly abnormal and carries,
// row i for device abnormal[i], the position before[j] the Step
// replaced and after[j] the one it wrote, bit for bit.
func checkWindow(t *testing.T, win *Window, d int, abnormal []int, before, after [][]float64) {
	t.Helper()
	if !slices.Equal(win.Abnormal, abnormal) {
		t.Fatalf("window flags %v, want %v", win.Abnormal, abnormal)
	}
	if len(win.Prev) != len(abnormal)*d || len(win.Cur) != len(abnormal)*d {
		t.Fatalf("window rows %d/%d for %d devices × %d", len(win.Prev), len(win.Cur), len(abnormal), d)
	}
	for i, j := range abnormal {
		for s := range d {
			if math.Float64bits(win.Prev[i*d+s]) != math.Float64bits(before[j][s]) || math.Float64bits(win.Cur[i*d+s]) != math.Float64bits(after[j][s]) {
				t.Fatalf("device %d service %d: window rows %v → %v, want %v → %v",
					j, s, win.Prev[i*d:(i+1)*d], win.Cur[i*d:(i+1)*d], before[j], after[j])
			}
		}
	}
}

// stateRows copies every position of st.
func stateRows(st *space.State) [][]float64 {
	rows := make([][]float64, st.Len())
	for j := range rows {
		rows[j] = st.AtClone(j)
	}
	return rows
}

// TestThresholdBankParity: over a stream of clean ticks carrying
// out-of-range values and degraded ticks that the strict policy
// rejects, the bank's strict in-place Step must reject every degraded
// tick with Walk's error and write nothing, and flag and clamp every
// accepted one exactly as the serial Walker does with WalkSkip over
// heap Threshold detectors fed the clamped rows, for every worker
// count, and hand back each flagged device's positions before and
// after the tick. The next Step reads what the last accepted one left.
func TestThresholdBankParity(t *testing.T) {
	t.Parallel()
	for _, d := range bankDims {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			thresholdBankParity(t, d)
		})
	}
}

// bankDims are the widths the bank's parity suites run at: one
// service, the benchmark's two, an odd width and the widest space.
var bankDims = []int{1, 2, 3, space.MaxDim}

func thresholdBankParity(t *testing.T, d int) {
	const n, ticks = 8192, 8
	raw := walkStream(n, d, ticks, 31)
	for k, snap := range raw {
		snap[k*97][0] = 1.3
		snap[k*89+5][d-1] = -0.2
	}
	stream, truth := degradeStream(raw, 32)
	// Even ticks are clean and accepted, odd ones degraded and rejected.
	for k := 0; k < ticks; k += 2 {
		stream[k] = raw[k]
		for j := range truth[k] {
			truth[k][j] = true
		}
	}

	devs := walkFleet(t, n, d, "threshold")
	walker := NewWalker(1)
	want, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	wantClean := make([]bool, n)
	type tick struct {
		abnormal []int
		coords   [][]float64
		reject   string
	}
	var ref []tick
	for k, snap := range stream {
		nClean := walker.Classify(devs, snap, wantClean)
		if !reflect.DeepEqual(wantClean, truth[k]) {
			t.Fatalf("tick %d: Classify diverges from truth", k)
		}
		if nClean < n {
			_, err := walker.Walk(devs, snap, nil, nil)
			if err == nil {
				t.Fatalf("tick %d: Walk accepted %d of %d clean rows", k, nClean, n)
			}
			ref = append(ref, tick{reject: err.Error()})
			continue
		}
		abn, err := walker.WalkSkip(devs, clampRows(snap), func(dev int, row []float64) {
			copy(want.At(dev), row)
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkThresholdState(t, devs, want)
		ref = append(ref, tick{abnormal: abn, coords: stateRows(want)})
	}

	for _, workers := range []int{1, 3, 8} {
		bank := NewThresholdBank(walkFleet(t, n, d, "threshold"), workers)
		if bank == nil {
			t.Fatal("uniform untrained Threshold fleet got no bank")
		}
		pos, _ := space.NewState(n, d)
		committed := stateRows(pos)
		var win Window
		for k, snap := range stream {
			nClean, err := bank.Step(snap, pos, k > 0, true, nil, &win)
			if ref[k].reject != "" {
				if err == nil || err.Error() != ref[k].reject {
					t.Fatalf("workers=%d tick %d: Step = %v, Walk = %s", workers, k, err, ref[k].reject)
				}
				if !reflect.DeepEqual(stateRows(pos), committed) || len(win.Abnormal)+len(win.Prev)+len(win.Cur) != 0 {
					t.Fatalf("workers=%d tick %d: a rejected Step wrote", workers, k)
				}
				continue
			}
			if err != nil || nClean != n {
				t.Fatalf("workers=%d tick %d: %d clean rows, want %d (%v)", workers, k, nClean, n, err)
			}
			if !reflect.DeepEqual(stateRows(pos), ref[k].coords) {
				t.Fatalf("workers=%d tick %d: state diverges from the walker's", workers, k)
			}
			checkWindow(t, &win, d, ref[k].abnormal, committed, ref[k].coords)
			committed = ref[k].coords
		}
	}
}

// TestThresholdBankParityHealth: with a health tracker, the bank's
// in-place Step must flag, clamp and park exactly what the serial
// reference does — Report every device in order, then WalkSkip each
// device's own row clamped, its held position or nothing — hand back
// each flagged device's positions before and after the tick, mark in
// the tracker the devices the reference trains, and leave the
// tracker's states and counters as the reference does, for every
// worker count. Out-of-range
// reports would make a held position (clamped) differ from the last
// raw sample; fed clamped, every trained reference detector's last
// sample is its device's committed position.
func TestThresholdBankParityHealth(t *testing.T) {
	t.Parallel()
	for _, d := range bankDims {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			thresholdBankParityHealth(t, d)
		})
	}
}

func thresholdBankParityHealth(t *testing.T, d int) {
	const n, ticks = 8192, 8
	raw := walkStream(n, d, ticks, 41)
	for _, snap := range raw {
		for j := 0; j < n; j += 7 {
			snap[j][j%d] += 0.2
		}
	}
	stream, truth := degradeStream(raw, 42)
	policy := health.Policy{HoldTicks: 1, ReadmitTicks: 2}
	type tick struct {
		abnormal []int
		coords   [][]float64
		trained  []bool
		states   []health.State
		stats    health.Stats
	}
	snapshot := func(tr *health.Tracker, abn []int, st *space.State, trained []bool) tick {
		k := tick{abnormal: append([]int{}, abn...), coords: stateRows(st), trained: trained, states: make([]health.State, n), stats: tr.Stats()}
		for j := range n {
			k.states[j] = tr.State(j)
		}
		return k
	}

	devs := walkFleet(t, n, d, "threshold")
	walker := NewWalker(1)
	tr, err := health.New(n, policy)
	if err != nil {
		t.Fatal(err)
	}
	var prev *space.State
	var ref []tick
	for k, snap := range stream {
		cur, _ := space.NewState(n, d)
		rows := clampRows(snap)
		for j := range rows {
			switch tr.Report(j, truth[k][j]) {
			case health.Consume:
			case health.Hold:
				rows[j] = prev.At(j)
			default:
				rows[j] = nil
			}
		}
		abn, err := walker.WalkSkip(devs, rows, func(dev int, row []float64) {
			switch {
			case row != nil:
				copy(cur.At(dev), row)
			case prev != nil:
				copy(cur.At(dev), prev.At(dev))
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, snapshot(tr, abn, cur, checkThresholdState(t, devs, cur)))
		prev = cur
	}
	if st := tr.Stats(); st.HeldTicks == 0 || st.Quarantines == 0 || st.Readmissions == 0 || st.DroppedReports == 0 {
		t.Fatalf("stream misses a transition: %+v", st)
	}

	for _, workers := range []int{1, 3, 8} {
		bank := NewThresholdBank(walkFleet(t, n, d, "threshold"), workers)
		tr, err := health.New(n, policy)
		if err != nil {
			t.Fatal(err)
		}
		pos, _ := space.NewState(n, d)
		committed := stateRows(pos)
		var win Window
		for k, snap := range stream {
			bank.Step(snap, pos, k > 0, false, tr, &win)
			if got := snapshot(tr, win.Abnormal, pos, marks(tr)); !reflect.DeepEqual(got, ref[k]) {
				t.Fatalf("workers=%d tick %d: bank diverges from the serial reference", workers, k)
			}
			checkWindow(t, &win, d, ref[k].abnormal, committed, ref[k].coords)
			committed = ref[k].coords
		}
	}
}

// TestThresholdBankStepWithoutCommit: a device is trained exactly when
// it holds the tracker's last-known mark, or, with no tracker, once a
// Step has committed. A Step with a tracker, strict or partial, marks
// each device it consumes, a rejected strict Step commits nothing at
// all, and resetting the tracker forgets training.
func TestThresholdBankStepWithoutCommit(t *testing.T) {
	t.Parallel()

	const n = 4
	bank := NewThresholdBank(walkFleet(t, n, 1, "threshold"), 1)
	pos, err := space.NewState(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := health.New(n, health.Policy{HoldTicks: 1, ReadmitTicks: 1})
	if err != nil {
		t.Fatal(err)
	}
	every := []bool{true, true, true, true}
	var win Window
	flat := [][]float64{{0.5}, {0.5}, {0.5}, {0.5}}
	jump := [][]float64{{0.9}, {0.5}, {0.1}, {0.5}}
	bad := [][]float64{{0.9}, {math.NaN()}, {0.1}, {0.5}}

	bank.Step(flat, pos, false, true, tr, &win) // no ConsumeAll
	if !slices.Equal(marks(tr), every) {
		t.Fatalf("a strict Step marked %v, want every device it consumed", marks(tr))
	}
	if bank.Step(jump, pos, true, true, tr, &win); !reflect.DeepEqual(win.Abnormal, []int{0, 2}) {
		t.Fatalf("after a strict Step flagged %v, want [0 2]", win.Abnormal)
	}
	if _, err := bank.Step(bad, pos, true, true, tr, &win); err == nil || !errors.Is(err, ErrSample) {
		t.Fatalf("Step = %v, want ErrSample", err)
	}
	if got := stateRows(pos); !reflect.DeepEqual(got, jump) || len(win.Abnormal) != 0 || tr.Stats() != (health.Stats{}) {
		t.Fatalf("state %v, flagged %v, health %+v after a rejected Step, want %v", got, win.Abnormal, tr.Stats(), jump)
	}
	if bank.Step(flat, pos, true, true, tr, &win); !reflect.DeepEqual(win.Abnormal, []int{0, 2}) {
		t.Fatalf("flagged %v, want [0 2]", win.Abnormal)
	}
	if !reflect.DeepEqual(win.Prev, []float64{0.9, 0.1}) || !reflect.DeepEqual(win.Cur, []float64{0.5, 0.5}) {
		t.Fatalf("window rows %v → %v, want [0.9 0.1] → [0.5 0.5]", win.Prev, win.Cur)
	}
	bank.Reset()
	tr.Reset()
	if bank.Step(jump, pos, true, true, tr, &win); len(win.Abnormal) != 0 {
		t.Fatalf("first sample after Reset flagged %v", win.Abnormal)
	}

	// With no tracker, a committed position trains every device.
	if bank.Step(flat, pos, true, true, nil, &win); !reflect.DeepEqual(win.Abnormal, []int{0, 2}) {
		t.Fatalf("with no tracker flagged %v, want [0 2]", win.Abnormal)
	}

	// A partial Step cannot be rejected: it marks what it consumes,
	// and a device's first sample only trains it.
	tr.Reset()
	if bank.Step(jump, pos, true, false, tr, &win); len(win.Abnormal) != 0 {
		t.Fatalf("a partial Step over unmarked devices flagged %v", win.Abnormal)
	}
	if bank.Step(flat, pos, true, false, tr, &win); !reflect.DeepEqual(win.Abnormal, []int{0, 2}) {
		t.Fatalf("after a partial Step flagged %v, want [0 2]", win.Abnormal)
	}
}

// TestThresholdBankReject: a strict Step names the lowest unclean row
// with Walk's error, whatever the shard it falls in, and writes
// nothing.
func TestThresholdBankReject(t *testing.T) {
	t.Parallel()

	const n = 3 * minShard
	snap := walkStream(n, 2, 1, 33)[0]
	snap[minShard+3][1] = math.Inf(-1)
	snap[2*minShard] = nil
	devs := walkFleet(t, n, 2, "threshold")
	_, walkErr := NewWalker(3).Walk(devs, snap, nil, nil)
	bank := NewThresholdBank(walkFleet(t, n, 2, "threshold"), 3)
	pos, _ := space.NewState(n, 2)
	var win Window
	_, err := bank.Step(snap, pos, false, true, nil, &win)
	if !errors.Is(err, ErrSample) || walkErr == nil || err.Error() != walkErr.Error() {
		t.Fatalf("Step = %v, Walk = %v", err, walkErr)
	}
	if origin, _ := space.NewState(n, 2); !reflect.DeepEqual(pos, origin) {
		t.Fatal("a rejected Step wrote positions")
	}
	if _, err := bank.Step(walkStream(n, 2, 1, 34)[0], pos, false, true, nil, &win); err != nil {
		t.Fatalf("Step of a clean snapshot = %v", err)
	}
}

// TestThresholdBankSelection: only a fleet of equally wide, untrained
// Threshold detectors sharing one delta has a bank.
func TestThresholdBankSelection(t *testing.T) {
	t.Parallel()

	fleet := func(d int, factory func(dev, svc int) Detector) []*Device {
		devs := make([]*Device, 3)
		for dev := range devs {
			var err error
			devs[dev], err = NewDevice(d, func(svc int) (Detector, error) { return factory(dev, svc), nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		return devs
	}
	threshold := func(delta float64) *Threshold {
		th, err := NewThreshold(delta)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	ewma, err := NewEWMA(0.3, 5, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		devs []*Device
		bank bool
	}{
		{"uniform", fleet(2, func(int, int) Detector { return threshold(0.05) }), true},
		{"infinite delta", fleet(1, func(int, int) Detector { return threshold(math.Inf(1)) }), true},
		{"mixed delta", fleet(2, func(dev, _ int) Detector { return threshold(0.05 + 0.01*float64(dev)) }), false},
		{"mixed type", fleet(2, func(_, svc int) Detector {
			if svc == 1 {
				return ewma
			}
			return threshold(0.05)
		}), false},
		{"other type", fleet(1, func(int, int) Detector { return ewma }), false},
		{"trained", fleet(2, func(dev, svc int) Detector {
			th := threshold(0.05)
			if dev == 2 && svc == 1 {
				th.Update(0.5)
			}
			return th
		}), false},
		{"mixed width", append(fleet(1, func(int, int) Detector { return threshold(0.05) }),
			fleet(2, func(int, int) Detector { return threshold(0.05) })...), false},
		{"empty", nil, false},
	} {
		if got := NewThresholdBank(tc.devs, 1) != nil; got != tc.bank {
			t.Errorf("%s: bank = %v, want %v", tc.name, got, tc.bank)
		}
	}
}

// mixedFleet builds n devices of d services whose detectors alternate
// between EWMA and Shewhart across devices and services.
func mixedFleet(t testing.TB, n, d int) []*Device {
	t.Helper()
	devs := make([]*Device, n)
	for j := range devs {
		dev, err := NewDevice(d, func(svc int) (Detector, error) {
			if (j+svc)%2 == 0 {
				return NewEWMA(0.3, 5, 0.01, 3)
			}
			return NewShewhart(5, 0.02, 5)
		})
		if err != nil {
			t.Fatal(err)
		}
		devs[j] = dev
	}
	return devs
}

// TestDeviceBankParity: over a stream of strict and degraded partial
// ticks through a fleet mixing EWMA and Shewhart detectors, the
// per-device bank's Check and in-place Step must flag, clamp and park
// exactly what the serial reference does — Classify, Tracker.Report
// and WalkSkip over the clamped rows on every accepted tick, strict or
// partial — hand back each flagged device's positions before and
// after the tick, and leave every detector's prediction, and the
// tracker's states and counters, as the reference does, for one worker
// and for four over ranges of several minShard devices each. A strict
// tick with an unclean row is rejected by both, and the bank's Check
// leaves its state as it was.
func TestDeviceBankParity(t *testing.T) {
	t.Parallel()

	const n, d, ticks = 4*minShard + 77, 2, 12
	raw := walkStream(n, d, ticks, 51)
	for _, snap := range raw {
		for j := 0; j < n; j += 7 {
			// Out of range: the detectors must see the clamped value,
			// the one a held position repeats, not the raw one.
			snap[j][j%d] += 0.2
		}
	}
	stream, _ := degradeStream(raw, 52)
	// Tick 0 trains and tick 8 lands on a degraded fleet through the
	// strict policy, both clean; strict tick 5 is rejected.
	strict := map[int]bool{0: true, 5: true, 8: true}
	stream[0], stream[8] = raw[0], raw[8]
	policy := health.Policy{HoldTicks: 1, ReadmitTicks: 2}

	type tick struct {
		abnormal []int
		nClean   int // −1 on a rejected tick
		coords   [][]float64
		preds    [][]float64
		states   []health.State
		stats    health.Stats
	}
	snapshot := func(devs []*Device, tr *health.Tracker, abn []int, nClean int, st *space.State) tick {
		k := tick{
			abnormal: append([]int{}, abn...),
			nClean:   nClean,
			coords:   stateRows(st),
			preds:    make([][]float64, n),
			states:   make([]health.State, n),
			stats:    tr.Stats(),
		}
		for j := range n {
			k.preds[j], k.states[j] = devs[j].Predict(), tr.State(j)
		}
		return k
	}

	devs := mixedFleet(t, n, d)
	walker := NewWalker(1)
	tr, err := health.New(n, policy)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := space.NewState(n, d)
	var ref []tick
	rejected := 0
	for k, snap := range stream {
		cur := prev.Clone()
		visit := func(dev int, row []float64) {
			if row != nil {
				copy(cur.At(dev), row)
			}
		}
		clean := make([]bool, n)
		nClean := walker.Classify(devs, snap, clean)
		var abn []int
		if strict[k] && nClean < n {
			if _, err := walker.Walk(devs, clampRows(snap), visit, nil); err == nil {
				t.Fatalf("tick %d: Walk accepted %d of %d rows clean", k, nClean, n)
			}
			cur, nClean = prev, -1
			rejected++
		} else {
			// An accepted tick, strict or partial, runs every
			// device's health transition.
			rows := clampRows(snap)
			for j := range rows {
				switch tr.Report(j, clean[j]) {
				case health.Consume:
				case health.Hold:
					rows[j] = prev.At(j)
				default:
					rows[j] = nil
				}
			}
			if abn, err = walker.WalkSkip(devs, rows, visit, nil); err != nil {
				t.Fatal(err)
			}
		}
		ref = append(ref, snapshot(devs, tr, abn, nClean, cur))
		prev = cur
	}
	if st := tr.Stats(); st.HeldTicks == 0 || st.Quarantines == 0 || st.Readmissions == 0 || st.DroppedReports == 0 || rejected != 1 {
		t.Fatalf("stream misses a transition or the rejected tick: %+v, %d rejected", st, rejected)
	}

	for _, workers := range []int{1, 4} {
		bank := NewDeviceBank(mixedFleet(t, n, d), workers)
		tr, err := health.New(n, policy)
		if err != nil {
			t.Fatal(err)
		}
		pos, _ := space.NewState(n, d)
		committed := stateRows(pos)
		var win Window
		for k, snap := range stream {
			nClean, err := bank.Step(snap, pos, k > 0, strict[k], tr, &win)
			if err != nil {
				nClean = -1
			}
			if got := snapshot(bank.devs, tr, win.Abnormal, nClean, pos); !reflect.DeepEqual(got, ref[k]) {
				t.Fatalf("workers=%d tick %d: bank diverges from the serial reference", workers, k)
			}
			checkWindow(t, &win, d, ref[k].abnormal, committed, ref[k].coords)
			committed = ref[k].coords
		}
	}
}

// TestDeviceBankStrictReject: a strict Step names a snapshot's one
// unclean row with Walk's error and updates no detector.
func TestDeviceBankStrictReject(t *testing.T) {
	t.Parallel()

	const n, d = 3 * minShard, 2
	stream := walkStream(n, d, 2, 53)
	bank := NewDeviceBank(mixedFleet(t, n, d), 3)
	pos, _ := space.NewState(n, d)
	var win Window
	if nClean, err := bank.Step(stream[0], pos, false, true, nil, &win); nClean != n || err != nil {
		t.Fatalf("%d clean rows of a clean snapshot, want %d (%v)", nClean, n, err)
	}
	predict := func() [][]float64 {
		preds := make([][]float64, n)
		for j, dv := range bank.devs {
			preds[j] = dv.Predict()
		}
		return preds
	}
	before := predict()
	snap := slices.Clone(stream[1])
	snap[2*minShard+5] = []float64{0.5, math.NaN()}
	committed := stateRows(pos)
	_, err := bank.Step(snap, pos, true, true, nil, &win)
	if !reflect.DeepEqual(predict(), before) || !reflect.DeepEqual(stateRows(pos), committed) {
		t.Fatal("a rejected strict Step updated detectors or positions")
	}
	_, walkErr := NewWalker(3).Walk(mixedFleet(t, n, d), snap, nil, nil)
	if !errors.Is(err, ErrSample) || walkErr == nil || err.Error() != walkErr.Error() {
		t.Fatalf("Check = %v, Walk = %v", err, walkErr)
	}
	// The same rows, all clean, move the predictions: the check above
	// has teeth.
	snap[2*minShard+5] = stream[1][2*minShard+5]
	if _, err := bank.Step(snap, pos, true, true, nil, &win); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(predict(), before) {
		t.Fatal("a clean Step left every prediction as it was")
	}
}

// oracleBank runs a ThresholdBank's Step with the per-device loops the
// fused kernel replaced: a serial grading of every row first when the
// Step is strict, then one State.At slot per device, saved, oracleClean,
// the health transition, a clamp loop over the whole row and a
// short-circuit jump test per service against the saved position. It
// keeps Threshold's first-sample rule in trained bytes of its own: a
// Step with a tracker trains each device it detects on, and its caller
// trains them all by Monitor.step's rule. FuzzThresholdBankStep pins
// the kernel, and the kernel tracker's marks, to it.
type oracleBank struct {
	d       int
	delta   float64
	trained []byte
	all     bool
	w       *Walker
}

func newOracleBank(n, d int, delta float64, workers int) *oracleBank {
	return &oracleBank{d: d, delta: delta, trained: make([]byte, n), w: NewWalker(workers)}
}

// trainAll records a tick that fed every device its own row.
func (o *oracleBank) trainAll() { o.all = true }

// reset forgets every device's training.
func (o *oracleBank) reset() {
	clear(o.trained)
	o.all = false
}

// isTrained reports which devices o has trained.
func (o *oracleBank) isTrained() []bool {
	trained := make([]bool, len(o.trained))
	for j := range trained {
		trained[j] = o.all || o.trained[j] != 0
	}
	return trained
}

func (o *oracleBank) Step(rows [][]float64, pos *space.State, committed, strict bool, t *health.Tracker, win *Window) (int, error) {
	for dev, row := range rows {
		if strict && !oracleClean(row, o.d) {
			win.reset()
			return 0, rejectRow(row, dev, o.d)
		}
	}
	return o.w.step(o, rows, pos, committed, strict, t, o.d, win)
}

func (o *oracleBank) stepRange(j *stepJob, lo, hi int, win *Window) (int, health.Delta) {
	d, delta, all, trained, committed := o.d, o.delta, o.all, o.trained, j.committed
	train := j.t != nil && !all
	n := 0
	var hd health.Delta
	for dev := lo; dev < hi; dev++ {
		row, p := j.rows[dev], j.pos.At(dev)
		var old [space.MaxDim]float64
		copy(old[:], p)
		ok := oracleClean(row, d)
		if ok {
			n++
		}
		if j.t != nil {
			switch j.t.Transition(dev, ok, &hd) {
			case health.Consume:
			case health.Hold:
				row, ok = old[:d], committed
			default:
				ok = false
			}
		}
		if !ok {
			continue
		}
		for i, x := range row {
			switch {
			case x < 0:
				x = 0
			case x > 1:
				x = 1
			}
			p[i] = x
		}
		if !committed || !all && trained[dev] == 0 {
			if train {
				trained[dev] = 1
			}
			continue
		}
		abnormal := false
		for i, x := range p {
			abnormal = abnormal || math.Abs(x-old[i]) > delta
		}
		if abnormal {
			win.Abnormal = append(win.Abnormal, dev)
			win.Prev = append(win.Prev, old[:d]...)
			win.Cur = append(win.Cur, p...)
		}
	}
	return n, hd
}

// Bank fuzz stream layout: per tick an op byte, a spec count byte, then
// that many row specs of a kind byte and d value bytes each. Device j
// takes spec j mod count, so every shard of a wide fleet sees them.
const (
	bankFuzzReset  = 1 << 0 // Reset the bank (and tracker) before the tick
	bankFuzzStrict = 1 << 1 // step the tick under the strict policy
	bankFuzzForget = 1 << 2 // Reset the trackers, and so training, before the tick
	bankFuzzMaxRow = 16     // most specs per tick
	bankFuzzDelta  = 0.05

	bankKindNil   = 0
	bankKindShort = 1
	bankKindLong  = 2
)

// bankFuzzValue maps a byte to a QoS value: the first thirteen are NaN,
// ±Inf, −0, out-of-range values, the interval's ends, the bank's delta
// (a jump of exactly delta from 0), then the values either side of the
// kernel's range test: the float just above 1, ± the smallest
// subnormal and a NaN with its sign bit set. The rest spread over [0,1]
// in steps of 1/242, well under delta.
func bankFuzzValue(b byte) float64 {
	special := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -0.25, 1.5, 0, 1, bankFuzzDelta,
		math.Nextafter(1, 2), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Copysign(math.NaN(), -1)}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int(b)-len(special)) / float64(255-len(special))
}

// bankFuzzTick encodes one tick of the fuzz stream; each spec is a
// kind byte followed by the row's value bytes.
func bankFuzzTick(op byte, specs ...[]byte) []byte {
	out := []byte{op, byte(len(specs) - 1)}
	for _, s := range specs {
		out = append(out, s...)
	}
	return out
}

// FuzzThresholdBankStep is a differential between the fused in-place
// kernel and oracleBank over arbitrary streams of strict or partial
// ticks at d in {1, 2, 3, MaxDim}, on one worker or three: nil, short
// and long rows, NaN, ±Inf, −0 and out-of-range values, rows that fail
// on a later service after earlier ones passed, a tracker driven stale
// and into quarantine, strict ticks among partial ones, which run the
// same health transitions, Resets, and trackers reset alone, which
// forgets training since the kernel's first-sample rule is the
// tracker's marks. An accepted tick that found every row clean over a
// fleet all live at its start marks every device, and trains the
// oracle, by Monitor.step's rule. After every tick both banks must have
// rejected with the same error or graded the same clean count, left
// the same bits in their slabs, flagged the same devices with the same
// bits of their positions before and after the tick, and left their
// trackers in the same states and counters, and the kernel tracker's
// marks must be the devices the oracle trained.
func FuzzThresholdBankStep(f *testing.F) {
	clean := func(d int, b byte) []byte { return append([]byte{7}, bytes.Repeat([]byte{b}, d)...) }
	for cfg := range 16 {
		d := bankDims[cfg&3]
		nilRow := append([]byte{bankKindNil}, make([]byte, d)...)
		odd := append([]byte{7, 3}, bytes.Repeat([]byte{5}, d-1)...) // −0, then 1.5s
		var s []byte
		for k := range 8 {
			// Spec 0 drops out (partial: a stale run, a quarantine and
			// a re-admission), spec 1 jumps every other tick, spec 2
			// carries non-finite values on even ticks and −0 or
			// out-of-range ones on odd ticks, which strict Steps
			// accept, and spec 4 moves by exactly delta every tick.
			row0 := clean(d, 200)
			if k == 1 || cfg&8 != 0 && k <= 3 {
				row0 = nilRow
			}
			row2 := []byte{byte(3 + k%5)}
			for i := range d {
				v := byte(k+i) % 8
				if k%2 == 1 {
					v = 3 + byte(k+i)%5
				}
				row2 = append(row2, v)
			}
			var op byte
			switch k {
			case 0, 3:
				op = bankFuzzStrict
			case 7:
				op = bankFuzzReset
			}
			s = append(s, bankFuzzTick(op, row0, clean(d, byte(100+20*(k/2%2))), row2, odd, clean(d, byte(6+2*(k%2))))...)
		}
		f.Add(uint8(cfg|0x30), s)
	}
	// The kernel's range test at its boundary, on three workers over
	// n = 3*minShard devices fed 16 specs, so specs 0 and 15 are the
	// first and last row of every shard. Value bytes: 1 +Inf, 3 −0,
	// 4 −0.25, 5 1.5, 6 +0, 7 1, 9 the float above 1, 10 and 11 ± the
	// smallest subnormal, 12 a NaN with its sign bit set; 134 is 0.5.
	for cfg := range 8 {
		d := bankDims[cfg&3]
		row := func(kind byte, v ...byte) []byte {
			out := []byte{kind}
			for i := range d {
				out = append(out, v[min(i, len(v)-1)])
			}
			return out
		}
		tick := func(op byte, first, last []byte, mid func(spec int) []byte) []byte {
			specs := [][]byte{first}
			for spec := 1; spec < 15; spec++ {
				specs = append(specs, mid(spec))
			}
			return bankFuzzTick(op, append(specs, last)...)
		}
		// Tick 0 commits −0 for spec 3; tick 1 moves spec 4 up by just
		// under delta and the last service of spec 5 down by just over
		// it, and puts slow rows at both ends of each shard.
		start := func(spec int) []byte {
			switch spec {
			case 1:
				return row(7, 7)
			case 2:
				return row(7, 10)
			case 3:
				return row(7, 3)
			}
			return row(7, 134)
		}
		moved := func(spec int) []byte {
			switch spec {
			case 1:
				return row(7, 7)
			case 2:
				return row(7, 11)
			case 3:
				return row(7, 6)
			case 4:
				return row(7, 146)
			case 5:
				return append(row(7, 134)[:d], 121)
			case 7:
				return row(7, 5)
			case 8:
				return row(7, 4)
			}
			return row(7, 134)
		}
		// Spec 1 drops out on the tick after the trackers are reset
		// alone: it is held only if its transition marked it on the
		// tick between.
		dropped := func(spec int) []byte {
			if spec == 1 {
				return row(bankKindNil, 0)
			}
			return moved(spec)
		}
		var s []byte
		s = append(s, tick(0, row(7, 6), row(7, 7), start)...)
		s = append(s, tick(0, row(7, 9), row(7, 3), moved)...)
		s = append(s, tick(0, row(7, 12), row(7, 1), moved)...)
		s = append(s, tick(0, row(7, 7), row(7, 7), moved)...)
		s = append(s, tick(bankFuzzReset, row(7, 7), row(7, 7), moved)...)
		s = append(s, tick(bankFuzzForget, row(bankKindNil, 0), row(7, 7), moved)...)
		s = append(s, tick(0, row(7, 7), row(7, 7), dropped)...)
		s = append(s, tick(0, row(7, 7), row(7, 7), moved)...)
		// Three workers always; cfg's bit 4 picks partial (bit 8).
		f.Add(uint8(cfg|4|(cfg&4)<<1), s)
	}
	// Rows that pass the kernel's tests on their first services and
	// fail on the last, over positions committed at 0.5 (byte 134):
	// spec 1 sends 140s (≈0.525, within delta) then a NaN twice, so a
	// partial tick holds it and then quarantines it (Skip), and spec 2
	// sends 140s then a jump to byte 200, which every policy flags. A
	// kernel that wrote a value before testing the rest would move the
	// held or parked position, or save a half-written k−1 row.
	for cfg := range 6 {
		d := bankDims[1+cfg%3]
		row := func(last byte) []byte {
			return append(append([]byte{7}, bytes.Repeat([]byte{140}, d-1)...), last)
		}
		rest := append([]byte{7}, bytes.Repeat([]byte{134}, d)...)
		var s []byte
		s = append(s, bankFuzzTick(0, rest, rest, rest, rest)...)
		s = append(s, bankFuzzTick(0, rest, row(0), row(200), rest)...)
		s = append(s, bankFuzzTick(0, rest, row(0), row(134), rest)...)
		s = append(s, bankFuzzTick(0, rest, row(140), row(200), rest)...)
		s = append(s, bankFuzzTick(0, rest, row(140), row(134), rest)...)
		// Three workers; cfg's bit 8 picks partial from the second half.
		f.Add(uint8(cfg%3+1|4|cfg/3<<3), s)
	}
	// Strict ticks accepted over an impaired fleet, which run the
	// health transitions: spec 1 misses a partial tick, so it is stale,
	// returns with a jump in a strict tick, misses two more, so it is
	// quarantined, and reports clean in two strict ticks, which drop
	// the first report and re-admit it on the second. Partial, on one
	// worker over two devices or on three.
	for cfg := range 8 {
		d := bankDims[cfg&3]
		rest, missing := clean(d, 134), append([]byte{bankKindNil}, make([]byte, d)...)
		var s []byte
		s = append(s, bankFuzzTick(0, rest, rest)...)
		s = append(s, bankFuzzTick(0, rest, missing)...)
		s = append(s, bankFuzzTick(bankFuzzStrict, rest, clean(d, 200))...)
		s = append(s, bankFuzzTick(0, rest, missing)...)
		s = append(s, bankFuzzTick(0, rest, missing)...)
		s = append(s, bankFuzzTick(bankFuzzStrict, rest, rest)...)
		s = append(s, bankFuzzTick(bankFuzzStrict, rest, rest)...)
		f.Add(uint8(cfg|0x18), s)
	}
	f.Fuzz(func(t *testing.T, cfg uint8, raw []byte) {
		d := bankDims[cfg&3]
		workers, n := 1, 1+int(cfg>>4)
		if cfg&4 != 0 {
			workers, n = 3, 3*minShard+int(cfg>>4)
		}
		partial := cfg&8 != 0
		kernel := NewUniformThresholdBank(d, bankFuzzDelta, workers)
		oracle := newOracleBank(n, d, bankFuzzDelta, workers)
		var kt, ot *health.Tracker
		if partial {
			policy := health.Policy{HoldTicks: 1, ReadmitTicks: 2}
			kt, _ = health.New(n, policy)
			ot, _ = health.New(n, policy)
		}
		kpos, _ := space.NewState(n, d)
		opos, _ := space.NewState(n, d)
		committed := false
		var kwin, owin Window
		for tick := 0; len(raw) >= 2 && tick < 8; tick++ {
			op, count := raw[0], 1+int(raw[1])%bankFuzzMaxRow
			raw = raw[2:]
			var specs [][]float64
			for ; len(specs) < count && len(raw) >= 1+d; raw = raw[1+d:] {
				row := make([]float64, d, d+1)
				for s := range row {
					row[s] = bankFuzzValue(raw[1+s])
				}
				switch raw[0] % 8 {
				case bankKindNil:
					row = nil
				case bankKindShort:
					row = row[:d-1]
				case bankKindLong:
					row = append(row, 0.5)
				}
				specs = append(specs, row)
			}
			if len(specs) == 0 {
				break
			}
			rows := make([][]float64, n)
			for j := range rows {
				rows[j] = specs[j%len(specs)]
			}
			if op&bankFuzzReset != 0 {
				// Monitor.Reset's order: the banks, then the slab.
				kernel.Reset()
				oracle.reset()
				clear(kpos.Span(0, n))
				clear(opos.Span(0, n))
				committed = false
			}
			if partial && op&(bankFuzzReset|bankFuzzForget) != 0 {
				// The kernel's training is the tracker's marks, so
				// forgetting them forgets it.
				kt.Reset()
				ot.Reset()
				oracle.reset()
			}
			// With no tracker the fleet is all live.
			allLive := !partial || kt.AllLive()
			strict := !partial || op&bankFuzzStrict != 0
			kn, kerr := kernel.Step(rows, kpos, committed, strict, kt, &kwin)
			on, oerr := oracle.Step(rows, opos, committed, strict, ot, &owin)

			if kn != on || fmt.Sprint(kerr) != fmt.Sprint(oerr) {
				t.Fatalf("tick %d: kernel graded %d clean (%v), oracle %d (%v)", tick, kn, kerr, on, oerr)
			}
			if !slices.Equal(kwin.Abnormal, owin.Abnormal) {
				t.Fatalf("tick %d: kernel flagged %v, oracle %v", tick, kwin.Abnormal, owin.Abnormal)
			}
			for _, pair := range [][2][]float64{{kpos.Span(0, n), opos.Span(0, n)}, {kwin.Prev, owin.Prev}, {kwin.Cur, owin.Cur}} {
				k, o := pair[0], pair[1]
				if len(k) != len(o) {
					t.Fatalf("tick %d: kernel wrote %d values, oracle %d", tick, len(k), len(o))
				}
				for i, x := range k {
					if y := o[i]; math.Float64bits(x) != math.Float64bits(y) {
						t.Fatalf("tick %d device %d service %d: kernel wrote %v, oracle %v", tick, i/d, i%d, x, y)
					}
				}
			}
			if partial {
				if marked, trained := marks(kt), oracle.isTrained(); !slices.Equal(marked, trained) {
					t.Fatalf("tick %d: kernel tracker marks %v, oracle trained %v", tick, marked, trained)
				}
				kl, ks, kq := kt.Counts()
				ol, os, oq := ot.Counts()
				if kl != ol || ks != os || kq != oq || kt.Stats() != ot.Stats() {
					t.Fatalf("tick %d: kernel tracker %d/%d/%d %+v, oracle %d/%d/%d %+v",
						tick, kl, ks, kq, kt.Stats(), ol, os, oq, ot.Stats())
				}
				for j := range n {
					if kt.State(j) != ot.State(j) {
						t.Fatalf("tick %d device %d: kernel tracker %v, oracle %v", tick, j, kt.State(j), ot.State(j))
					}
				}
			}
			if kerr != nil {
				continue
			}
			committed = true
			if allLive && kn == n {
				if partial {
					kt.ConsumeAll()
					ot.ConsumeAll()
				}
				oracle.trainAll()
			}
		}
	})
}

// BenchmarkThresholdBankStep times the bank's Step alone over n = 1M
// two-service devices fed one quiet snapshot every tick, in place over
// one position slab, marking the tracker as the Monitor does, and
// reports ns/device. strict is the Observe pass (no tracker, so every
// device is trained once a Step has committed), partial the
// ObservePartial pass over an all-live fleet (every device marked after
// its first tick), lossy the partial pass with a hundredth of the
// reports lost each tick and a 500-device block quarantined, which
// never marks the whole fleet at once. workers=0 shards over
// GOMAXPROCS.
func BenchmarkThresholdBankStep(b *testing.B) {
	const n, d, stride, block = 1_000_000, 2, 100, 500
	rng := rand.New(rand.NewSource(5))
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	snap := make([][]float64, n)
	for j := range snap {
		snap[j] = flat[j*d : (j+1)*d : (j+1)*d]
	}
	for _, mode := range []string{"strict", "partial", "lossy"} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				bank := NewUniformThresholdBank(d, 0.05, workers)
				var tr *health.Tracker
				if mode != "strict" {
					var err error
					if tr, err = health.New(n, health.Policy{HoldTicks: 2, ReadmitTicks: 2}); err != nil {
						b.Fatal(err)
					}
				}
				rows := slices.Clone(snap)
				// lose restores the rows the last tick lost and drops
				// this tick's.
				lost := -1
				lose := func(tick int) {
					if mode != "lossy" {
						return
					}
					clear(rows[:block])
					for dev := block + lost; lost >= 0 && dev < n; dev += stride {
						rows[dev] = snap[dev]
					}
					lost = tick % stride
					for dev := block + lost; dev < n; dev += stride {
						rows[dev] = nil
					}
				}
				pos, _ := space.NewState(n, d)
				var win Window
				committed := false
				step := func(tick int) {
					lose(tick)
					allLive := tr != nil && tr.AllLive()
					nClean, _ := bank.Step(rows, pos, committed, tr == nil, tr, &win)
					committed = true
					// Monitor.step's rule: a fully clean partial tick
					// over a fleet all live at its start marks every
					// device.
					if allLive && nClean == n {
						tr.ConsumeAll()
					}
				}
				// Warm-up: the first tick trains, the lossy block is
				// quarantined by the fourth.
				for i := range 4 {
					step(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					step(i)
				}
				b.StopTimer()
				if len(win.Abnormal) != 0 {
					b.Fatalf("quiet tick flagged %d devices", len(win.Abnormal))
				}
				if _, _, q := tr.Counts(); mode == "lossy" && q != block {
					b.Fatalf("%d devices quarantined, want the %d-device block", q, block)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/device")
			})
		}
	}
}

// TestThresholdBankShedsWideStep pins the shrink rule of package slab
// on the per-worker windows: after a Step that flags all 32,768 devices
// on 8 workers, a share of ~160 KB each and every one under the floor,
// and three Steps that flag one device, the workers' windows hold at
// most one floor's worth between them.
func TestThresholdBankShedsWideStep(t *testing.T) {
	t.Parallel()

	const n, d, workers = 32768, 2, 8
	bank := NewThresholdBank(walkFleet(t, n, d, "threshold"), workers)
	pos, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(v float64) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{v, v}
		}
		return rows
	}
	var win Window
	bank.Step(snap(0.5), pos, false, true, nil, &win)
	rows := snap(0.9)
	if bank.Step(rows, pos, true, true, nil, &win); len(win.Abnormal) != n {
		t.Fatalf("the wide Step flagged %d devices, want %d", len(win.Abnormal), n)
	}
	for k := 0; k < 3; k++ {
		rows[0][0] = 0.5 + 0.4*float64(k%2)
		if bank.Step(rows, pos, true, true, nil, &win); len(win.Abnormal) != 1 {
			t.Fatalf("small Step %d flagged %d devices, want 1", k, len(win.Abnormal))
		}
	}
	words := 0
	for _, b := range bank.w.bufs {
		words += cap(b.Abnormal) + cap(b.Prev) + cap(b.Cur)
	}
	if words*8 > 256<<10 {
		t.Errorf("the workers' windows hold %d words after the small Steps, want at most 256 KB", words)
	}
}
