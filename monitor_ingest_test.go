package anomalia

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/detect"
	"anomalia/internal/paperfig"
	"anomalia/internal/space"
)

// TestMonitorShardedParity: the same stream through monitors that only
// differ in WithIngestWorkers must produce identical outcomes tick for
// tick — the sharded detector walk is pinned byte-identical to the
// serial one at the public API. The fleet is sized to split into
// several shards (the walker's minimum shard is 2048 devices).
func TestMonitorShardedParity(t *testing.T) {
	t.Parallel()

	const n = 8192
	workerCounts := []int{1, 2, 3, 8}
	monitors := make([]*Monitor, len(workerCounts))
	for i, w := range workerCounts {
		m, err := NewMonitor(n, 1, WithRadius(0.03), WithTau(3), WithIngestWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		monitors[i] = m
	}

	faultA := map[int]float64{0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49, 4: 0.5, 5: 0.5, 4091: 0.2}
	faultB := map[int]float64{6000: 0.6, 6001: 0.6, 6002: 0.61, 6003: 0.59, 8191: 0.15}
	stream := []map[int]float64{nil, nil, faultA, nil, faultB, nil}
	for tick, overrides := range stream {
		snap := fleetSnapshot(n, 0.95, overrides)
		var want *Outcome
		for i, m := range monitors {
			got, err := m.Observe(snap)
			if err != nil {
				t.Fatalf("tick %d workers=%d: %v", tick, workerCounts[i], err)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d: workers=%d outcome diverges from serial:\n%+v\nvs\n%+v",
					tick, workerCounts[i], got, want)
			}
		}
	}
	for i, m := range monitors[1:] {
		if m.Time() != monitors[0].Time() {
			t.Errorf("workers=%d Time = %d, serial = %d", workerCounts[i+1], m.Time(), monitors[0].Time())
		}
	}
}

// TestMonitorRejectsNonFinite: NaN and ±Inf QoS values must be refused
// — v < 0 || v > 1 is false for NaN, so an interval test alone would
// let it poison detector and space state — as must nil and wrong-width
// rows, and the refused snapshot must leave the monitor exactly as it
// was: same clock, same recycled buffers, and detector state identical
// to a twin monitor that never saw the bad snapshot. Exercised on both
// the serial and sharded walks, with offenders mid-fleet and at the
// last device (the final shard).
func TestMonitorRejectsNonFinite(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name    string
		n       int
		workers int
	}{
		{"serial", 12, 1},
		{"sharded", 8192, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := NewMonitor(tc.n, 1, WithIngestWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewMonitor(tc.n, 1, WithIngestWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			healthy := fleetSnapshot(tc.n, 0.95, nil)
			for i := 0; i < 2; i++ {
				if _, err := m.Observe(healthy); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.Observe(healthy); err != nil {
					t.Fatal(err)
				}
			}
			prevPtr, sparePtr := m.prev, m.spare

			for name, corrupt := range map[string]func(s [][]float64){
				"nan":       func(s [][]float64) { s[tc.n/2][0] = math.NaN() },
				"+inf":      func(s [][]float64) { s[tc.n/2][0] = math.Inf(1) },
				"-inf":      func(s [][]float64) { s[tc.n/2][0] = math.Inf(-1) },
				"nil":       func(s [][]float64) { s[tc.n/2] = nil },
				"short":     func(s [][]float64) { s[tc.n/2] = s[tc.n/2][:0] },
				"last-nan":  func(s [][]float64) { s[tc.n-1][0] = math.NaN() },
				"last-nil":  func(s [][]float64) { s[tc.n-1] = nil },
				"last-wide": func(s [][]float64) { s[tc.n-1] = []float64{0.95, 0.95} },
			} {
				snap := fleetSnapshot(tc.n, 0.95, nil)
				corrupt(snap)
				if _, err := m.Observe(snap); !errors.Is(err, ErrInvalidInput) {
					t.Fatalf("Observe with %s row: error = %v, want ErrInvalidInput", name, err)
				}
				if m.Time() != 2 {
					t.Errorf("clock advanced to %d on a rejected snapshot", m.Time())
				}
				if m.prev != prevPtr {
					t.Error("rejected snapshot swapped the previous state")
				}
				if m.spare != sparePtr {
					t.Error("rejected snapshot leaked the recycled buffer")
				}
			}

			// The detectors consumed nothing: a fault now characterizes
			// exactly as on the twin that never saw the bad snapshots.
			fault := fleetSnapshot(tc.n, 0.95, map[int]float64{3: 0.2})
			got, err := m.Observe(fault)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Observe(fault)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("post-rejection outcome diverges from twin:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// fireDetector flags every sample while *on is set; it lets a test
// choose the abnormal set exactly.
type fireDetector struct{ on *bool }

func (f *fireDetector) Update(float64) bool { return *f.on }
func (f *fireDetector) Predict() float64    { return 0 }
func (f *fireDetector) Reset()              {}

// stateRows copies a paperfig state into Observe's row format.
func stateRows(st *space.State) [][]float64 {
	rows := make([][]float64, st.Len())
	for j := range rows {
		rows[j] = append([]float64(nil), st.At(j)...)
	}
	return rows
}

// TestMonitorCharacterizationErrorKeepsInvariants: when an accepted
// snapshot's characterization fails (here: the Theorem-7 exact search
// exceeds a budget of 1 on the paper's Figure 5 window), the monitor
// must stay coherent — the snapshot was consumed by the detectors, so
// the clock and previous state advance with them, and the displaced
// state is recycled into the spare buffer instead of leaking. The next
// Observe proceeds from that state as if the window had characterized.
func TestMonitorCharacterizationErrorKeepsInvariants(t *testing.T) {
	t.Parallel()

	fig, err := paperfig.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	n, d := fig.Pair.Prev.Len(), fig.Pair.Prev.Dim()
	fire := true
	m, err := NewMonitor(n, d,
		WithRadius(fig.R), WithTau(fig.Tau), WithBudget(1),
		WithDetectorFactory(func(int, int) (Detector, error) {
			return &fireDetector{on: &fire}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}

	prevRows := stateRows(fig.Pair.Prev)
	curRows := stateRows(fig.Pair.Cur)
	if _, err := m.Observe(prevRows); err != nil {
		t.Fatal(err)
	}
	firstState := m.prev

	_, err = m.Observe(curRows)
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("budget-1 window error = %v, want ErrBudget", err)
	}
	if m.Time() != 2 {
		t.Errorf("Time = %d after a consumed-but-failed window, want 2", m.Time())
	}
	if m.prev == firstState {
		t.Error("failed characterization rolled back the consumed snapshot")
	}
	if m.spare != firstState {
		t.Error("failed characterization leaked the displaced state instead of recycling it")
	}

	// The monitor keeps streaming: a quiet tick is accepted and the
	// recycled buffer is the one that was just returned.
	fire = false
	out, err := m.Observe(curRows)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Errorf("quiet tick produced outcome %+v", out)
	}
	if m.Time() != 3 {
		t.Errorf("Time = %d, want 3", m.Time())
	}
}

// TestMonitorDetectorPath: the default factory, and any factory of
// untrained Threshold detectors sharing one delta, run the Threshold
// bank; mixed deltas, mixed detector types, a pre-trained Threshold and
// a wrapped one run the per-device bank.
func TestMonitorDetectorPath(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name    string
		factory func(dev, svc int) (Detector, error)
		bank    bool
	}{
		{"default", nil, true},
		{"one delta", func(int, int) (Detector, error) { return NewThresholdDetector(0.1) }, true},
		{"mixed delta", func(dev, _ int) (Detector, error) {
			return NewThresholdDetector(0.05 + 0.01*float64(dev%2))
		}, false},
		{"mixed type", func(_, svc int) (Detector, error) {
			if svc == 1 {
				return NewEWMADetector(0.3, 6, 0.01, 3)
			}
			return NewThresholdDetector(0.05)
		}, false},
		{"pre-trained", func(dev, svc int) (Detector, error) {
			d, err := NewThresholdDetector(0.05)
			if err == nil && dev == 3 && svc == 1 {
				d.Update(0.5)
			}
			return d, err
		}, false},
		{"wrapped", genericThreshold, false},
	} {
		var opts []Option
		if tc.factory != nil {
			opts = append(opts, WithDetectorFactory(tc.factory))
		}
		m, err := NewMonitor(6, 2, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, threshold := m.bank.(*detect.ThresholdBank)
		_, device := m.bank.(*detect.DeviceBank)
		if threshold != tc.bank || device == tc.bank {
			t.Errorf("%s: bank = %T, want Threshold bank %v", tc.name, m.bank, tc.bank)
		}
	}
}
