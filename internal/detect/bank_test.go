package detect

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"anomalia/internal/health"
	"anomalia/internal/space"
)

// TestThresholdBankParity: over a degraded stream with out-of-range
// values, the bank's Step must flag, grade and clamp exactly what the
// serial Walker does with Classify and WalkSkip over the same fleet of
// heap Threshold detectors, for every worker count.
func TestThresholdBankParity(t *testing.T) {
	t.Parallel()

	const n, d, ticks = 8192, 2, 6
	raw := walkStream(n, d, ticks, 31)
	for k, snap := range raw {
		snap[k*97][0] = 1.3
		snap[k*89+5][1] = -0.2
	}
	stream, truth := degradeStream(raw, 32)

	devs := walkFleet(t, n, d, "threshold")
	walker := NewWalker(1)
	want, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	wantClean := make([]bool, n)
	type tick struct {
		abnormal []int
		nClean   int
		coords   [][]float64
	}
	var ref []tick
	for k, snap := range stream {
		nClean := walker.Classify(devs, snap, wantClean)
		if !reflect.DeepEqual(wantClean, truth[k]) {
			t.Fatalf("tick %d: Classify diverges from truth", k)
		}
		rows := make([][]float64, n)
		for j := range rows {
			if wantClean[j] {
				rows[j] = snap[j]
			}
		}
		abn, err := walker.WalkSkip(devs, rows, func(dev int, row []float64) {
			if row != nil {
				copy(want.At(dev), row)
				want.At(dev).Clamp()
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		coords := make([][]float64, n)
		for j := range coords {
			coords[j] = want.AtClone(j)
		}
		ref = append(ref, tick{abn, nClean, coords})
	}

	for _, workers := range []int{1, 3, 8} {
		bank := NewThresholdBank(walkFleet(t, n, d, "threshold"), workers)
		if bank == nil {
			t.Fatal("uniform untrained Threshold fleet got no bank")
		}
		prev, _ := space.NewState(n, d)
		cur, _ := space.NewState(n, d)
		clean := make([]bool, n)
		var out []int
		for k, snap := range stream {
			var nClean int
			out, nClean = bank.Step(snap, prev, cur, nil, clean, out)
			bank.Commit()
			if !slices.Equal(out, ref[k].abnormal) {
				t.Fatalf("workers=%d tick %d: abnormal %v, walker %v", workers, k, out, ref[k].abnormal)
			}
			if nClean != ref[k].nClean || !reflect.DeepEqual(clean, truth[k]) {
				t.Fatalf("workers=%d tick %d: %d clean, walker %d", workers, k, nClean, ref[k].nClean)
			}
			for j := range ref[k].coords {
				if !reflect.DeepEqual([]float64(cur.At(j)), ref[k].coords[j]) {
					t.Fatalf("workers=%d tick %d device %d: state %v, walker %v", workers, k, j, cur.At(j), ref[k].coords[j])
				}
			}
			prev, cur = cur, prev
		}
	}
}

// TestThresholdBankParityHealth: with a health tracker, the bank's
// Step must flag, clamp and park exactly what the serial reference
// does — Report every device in order, then WalkSkip each device's own
// row, its held position or nothing — and leave the detectors, and the
// tracker's states and counters, as the reference does, for every
// worker count. Out-of-range reports make a held position (clamped)
// differ from the last raw sample.
func TestThresholdBankParityHealth(t *testing.T) {
	t.Parallel()

	const n, d, ticks = 8192, 2, 8
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
		last     []float64
		states   []health.State
		stats    health.Stats
	}
	snapshot := func(tr *health.Tracker, abn []int, st *space.State, last []float64) tick {
		k := tick{abnormal: abn, coords: make([][]float64, n), last: slices.Clone(last), states: make([]health.State, n), stats: tr.Stats()}
		for j := range n {
			k.coords[j], k.states[j] = st.AtClone(j), tr.State(j)
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
		rows := make([][]float64, n)
		for j := range rows {
			switch tr.Report(j, truth[k][j]) {
			case health.Consume:
				rows[j] = snap[j]
			case health.Hold:
				rows[j] = prev.At(j)
			}
		}
		abn, err := walker.WalkSkip(devs, rows, func(dev int, row []float64) {
			switch {
			case row != nil:
				copy(cur.At(dev), row)
				cur.At(dev).Clamp()
			case prev != nil:
				copy(cur.At(dev), prev.At(dev))
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := make([]float64, 0, n*d)
		for _, dev := range devs {
			for _, det := range dev.detectors {
				if th := det.(*Threshold); th.trained {
					last = append(last, th.last)
				} else {
					last = append(last, math.NaN())
				}
			}
		}
		ref = append(ref, snapshot(tr, abn, cur, last))
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
		var prev *space.State
		clean := make([]bool, n)
		var out []int
		for k, snap := range stream {
			cur, _ := space.NewState(n, d)
			out, _ = bank.Step(snap, prev, cur, tr, clean, out)
			bank.Commit()
			got := snapshot(tr, out, cur, bank.last)
			// NaN marks an untrained detector; DeepEqual would call
			// two NaNs different.
			if !slices.EqualFunc(got.last, ref[k].last, func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }) {
				t.Fatalf("workers=%d tick %d: detector state diverges from the serial reference", workers, k)
			}
			got.last = ref[k].last
			if !reflect.DeepEqual(got, ref[k]) {
				t.Fatalf("workers=%d tick %d: bank diverges from the serial reference", workers, k)
			}
			prev = cur
		}
	}
}

// TestThresholdBankStepWithoutCommit: a Step that is not committed
// leaves every detector as it was, so a later Step sees the state the
// last Commit left.
func TestThresholdBankStepWithoutCommit(t *testing.T) {
	t.Parallel()

	const n = 4
	bank := NewThresholdBank(walkFleet(t, n, 1, "threshold"), 1)
	cur, _ := space.NewState(n, 1)
	clean := make([]bool, n)
	flat := [][]float64{{0.5}, {0.5}, {0.5}, {0.5}}
	jump := [][]float64{{0.9}, {0.5}, {0.1}, {0.5}}
	bank.Step(flat, nil, cur, nil, clean, nil)
	bank.Commit()
	bank.Step(jump, nil, cur, nil, clean, nil) // rejected: never committed
	got, _ := bank.Step(flat, nil, cur, nil, clean, nil)
	if len(got) != 0 {
		t.Fatalf("uncommitted jump leaked into the detectors: flagged %v", got)
	}
	got, _ = bank.Step(jump, nil, cur, nil, clean, nil)
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("flagged %v, want [0 2]", got)
	}
	bank.Reset()
	if got, _ := bank.Step(jump, nil, cur, nil, clean, nil); len(got) != 0 {
		t.Fatalf("first sample after Reset flagged %v", got)
	}
}

// TestThresholdBankReject: Reject names the lowest unclean row with
// Walk's error.
func TestThresholdBankReject(t *testing.T) {
	t.Parallel()

	const n = 3 * minShard
	snap := walkStream(n, 2, 1, 33)[0]
	snap[minShard+3][1] = math.Inf(-1)
	snap[2*minShard] = nil
	devs := walkFleet(t, n, 2, "threshold")
	_, walkErr := NewWalker(3).Walk(devs, snap, nil, nil)
	bank := NewThresholdBank(walkFleet(t, n, 2, "threshold"), 3)
	cur, _ := space.NewState(n, 2)
	clean := make([]bool, n)
	if _, nClean := bank.Step(snap, nil, cur, nil, clean, nil); nClean != n-2 {
		t.Fatalf("%d clean rows, want %d", nClean, n-2)
	}
	err := bank.Reject(snap, clean)
	if !errors.Is(err, ErrSample) || walkErr == nil || err.Error() != walkErr.Error() {
		t.Fatalf("Reject = %v, Walk = %v", err, walkErr)
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
// per-device bank's Step must flag, grade, clamp and park exactly what
// the serial reference does — Walker.Walk on a strict tick; Classify,
// Tracker.Report and WalkSkip on a partial one — and leave every
// detector's prediction, and the tracker's states and counters, as the
// reference does, for one worker and for four over ranges of several
// minShard devices each. A strict tick with an unclean row is rejected
// by both and commits nothing.
func TestDeviceBankParity(t *testing.T) {
	t.Parallel()

	const n, d, ticks = 4*minShard + 77, 2, 12
	raw := walkStream(n, d, ticks, 51)
	for _, snap := range raw {
		for j := 0; j < n; j += 7 {
			// Out of range: a held position (clamped) differs from the
			// last raw sample.
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
		nClean   int
		clean    []bool
		coords   [][]float64
		preds    [][]float64
		states   []health.State
		stats    health.Stats
	}
	snapshot := func(devs []*Device, tr *health.Tracker, abn []int, nClean int, clean []bool, cur *space.State) tick {
		k := tick{
			abnormal: append([]int{}, abn...),
			nClean:   nClean,
			clean:    slices.Clone(clean),
			preds:    make([][]float64, n),
			states:   make([]health.State, n),
			stats:    tr.Stats(),
		}
		if cur != nil {
			k.coords = make([][]float64, n)
		}
		for j := range n {
			k.preds[j], k.states[j] = devs[j].Predict(), tr.State(j)
			if cur != nil {
				k.coords[j] = cur.AtClone(j)
			}
		}
		return k
	}

	devs := mixedFleet(t, n, d)
	walker := NewWalker(1)
	tr, err := health.New(n, policy)
	if err != nil {
		t.Fatal(err)
	}
	var prev *space.State
	var ref []tick
	rejected := 0
	for k, snap := range stream {
		cur, _ := space.NewState(n, d)
		visit := func(dev int, row []float64) {
			switch {
			case row != nil:
				copy(cur.At(dev), row)
				cur.At(dev).Clamp()
			case prev != nil:
				copy(cur.At(dev), prev.At(dev))
			}
		}
		clean := make([]bool, n)
		nClean := walker.Classify(devs, snap, clean)
		var abn []int
		if strict[k] {
			abn, err = walker.Walk(devs, snap, visit, nil)
			if (err != nil) != (nClean < n) {
				t.Fatalf("tick %d: Walk error %v with %d of %d rows clean", k, err, nClean, n)
			}
			if err != nil {
				cur = nil
				rejected++
			}
		} else {
			rows := make([][]float64, n)
			for j := range rows {
				switch tr.Report(j, clean[j]) {
				case health.Consume:
					rows[j] = snap[j]
				case health.Hold:
					rows[j] = prev.At(j)
				}
			}
			if abn, err = walker.WalkSkip(devs, rows, visit, nil); err != nil {
				t.Fatal(err)
			}
		}
		ref = append(ref, snapshot(devs, tr, abn, nClean, clean, cur))
		if cur != nil {
			prev = cur
		}
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
		var prev *space.State
		clean := make([]bool, n)
		var out []int
		for k, snap := range stream {
			cur, _ := space.NewState(n, d)
			var stepTracker *health.Tracker
			if !strict[k] {
				stepTracker = tr
			}
			var nClean int
			out, nClean = bank.Step(snap, prev, cur, stepTracker, clean, out)
			if strict[k] && nClean < n {
				cur = nil
			} else {
				bank.Commit()
			}
			if got := snapshot(bank.devs, tr, out, nClean, clean, cur); !reflect.DeepEqual(got, ref[k]) {
				t.Fatalf("workers=%d tick %d: bank diverges from the serial reference", workers, k)
			}
			if cur != nil {
				prev = cur
			}
		}
	}
}

// TestDeviceBankStrictReject: a strict Step over a snapshot with one
// unclean row updates no detector, and Reject names the row with
// Walk's error.
func TestDeviceBankStrictReject(t *testing.T) {
	t.Parallel()

	const n, d = 3 * minShard, 2
	stream := walkStream(n, d, 2, 53)
	bank := NewDeviceBank(mixedFleet(t, n, d), 3)
	cur, _ := space.NewState(n, d)
	clean := make([]bool, n)
	if _, nClean := bank.Step(stream[0], nil, cur, nil, clean, nil); nClean != n {
		t.Fatalf("%d clean rows of a clean snapshot, want %d", nClean, n)
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
	out, nClean := bank.Step(snap, nil, cur, nil, clean, nil)
	if nClean != n-1 || len(out) != 0 {
		t.Fatalf("rejected Step: %d clean rows, flagged %v", nClean, out)
	}
	if !reflect.DeepEqual(predict(), before) {
		t.Fatal("a rejected strict Step updated detectors")
	}
	_, walkErr := NewWalker(3).Walk(mixedFleet(t, n, d), snap, nil, nil)
	if err := bank.Reject(snap, clean); !errors.Is(err, ErrSample) || walkErr == nil || err.Error() != walkErr.Error() {
		t.Fatalf("Reject = %v, Walk = %v", err, walkErr)
	}
	// The same rows, all clean, move the predictions: the check above
	// has teeth.
	snap[2*minShard+5] = stream[1][2*minShard+5]
	bank.Step(snap, nil, cur, nil, clean, nil)
	if reflect.DeepEqual(predict(), before) {
		t.Fatal("a clean Step left every prediction as it was")
	}
}
