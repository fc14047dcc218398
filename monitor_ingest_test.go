package anomalia

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
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
// was: same clock, the same position slab holding the same positions,
// and detector state identical to a twin monitor that never saw the
// bad snapshot. Exercised on both the serial and sharded walks, with
// offenders mid-fleet and at the last device (the final shard).
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
			prevPtr, committed := m.prev, m.prev.Clone()

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
					t.Error("rejected snapshot swapped the position slab")
				}
				if !reflect.DeepEqual(m.prev, committed) {
					t.Error("rejected snapshot wrote the position slab")
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
// the clock and the committed positions advance with them, in the one
// position slab. The next Observe proceeds from that state as if the
// window had characterized.
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
	if m.prev != firstState {
		t.Error("failed characterization replaced the position slab")
	}
	for j, row := range curRows {
		if !reflect.DeepEqual([]float64(m.prev.At(j)), row) {
			t.Fatalf("device %d committed at %v after a consumed-but-failed window, want %v", j, m.prev.At(j), row)
		}
	}

	// The monitor keeps streaming: a quiet tick is accepted.
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

// TestMonitorClampOncePolicy pins the clamp-once policy on both banks:
// a finite report outside [0,1] is clamped once, at ingest, and the
// detectors see the clamped value the window's positions hold. So a
// device that jumps to 1.3 is abnormal once; held through a lost
// report and then reporting 1.3 again it stays at 1 and is not; and
// 1.3 followed by 1.2 is no jump.
func TestMonitorClampOncePolicy(t *testing.T) {
	t.Parallel()

	const n = 6
	row := func(x float64) [][]float64 {
		snap := make([][]float64, n)
		for j := range snap {
			snap[j] = []float64{0.5, 0.5}
		}
		snap[0] = []float64{x, 0.5}
		return snap
	}
	lost := row(0.5)
	lost[0] = nil
	for _, tc := range []struct {
		name    string
		factory func(dev, svc int) (Detector, error)
	}{
		{"default", nil},
		{"generic", genericThreshold},
	} {
		for _, stream := range []struct {
			name     string
			strict   bool
			ticks    [][][]float64
			abnormal []bool
		}{
			{"partial", false, [][][]float64{row(0.5), row(1.3), lost, row(1.3)}, []bool{false, true, false, false}},
			{"strict", true, [][][]float64{row(1.3), row(1.2)}, []bool{false, false}},
		} {
			var opts []Option
			if tc.factory != nil {
				opts = append(opts, WithDetectorFactory(tc.factory))
			}
			m, err := NewMonitor(n, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k, snap := range stream.ticks {
				observe := m.ObservePartial
				if stream.strict {
					observe = m.Observe
				}
				out, err := observe(snap)
				if err != nil {
					t.Fatalf("%s %s tick %d: %v", tc.name, stream.name, k, err)
				}
				abnormal := out != nil && slices.ContainsFunc(out.Reports, func(r Report) bool { return r.Device == 0 })
				if abnormal != stream.abnormal[k] {
					t.Errorf("%s %s tick %d: device 0 abnormal = %v, want %v", tc.name, stream.name, k, abnormal, stream.abnormal[k])
				}
			}
			if want := []float64{1, 0.5}; !reflect.DeepEqual([]float64(m.prev.At(0)), want) {
				t.Errorf("%s %s: device 0 committed at %v, want %v", tc.name, stream.name, m.prev.At(0), want)
			}
		}
	}
}

// TestMonitorRetainedHeap bounds what a monitor keeps alive per device
// once it has run partial ticks: its one position slab and the health
// tracker — 16+6 bytes at d = 2; it reads 22.0. A second n×d state
// adds 16 bytes and trips the bound (the monitor read 41.1 while it
// kept one, a classification mask and the trained bytes), as would a
// bank that kept its own copy of every sample. Not parallel: it reads
// the process's live heap.
func TestMonitorRetainedHeap(t *testing.T) {
	const n, d, bound = 1 << 18, 2, 30
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = 0.5
	}
	rows := make([][]float64, n)
	for j := range rows {
		rows[j] = flat[j*d : (j+1)*d]
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}

	before := live()
	m, err := NewMonitor(n, d, WithIngestWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := m.ObservePartial(rows); err != nil {
			t.Fatal(err)
		}
	}
	after := live()
	runtime.KeepAlive(m)
	runtime.KeepAlive(rows)
	if per := (float64(after) - float64(before)) / n; per > bound {
		t.Fatalf("monitor keeps %.1f bytes per device live (heap %d -> %d), want at most %d", per, before, after, bound)
	}
}
