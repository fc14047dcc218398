package detect

import (
	"errors"
	"math"
	"testing"

	"anomalia/internal/stats"
)

// steady produces n samples of level + small deterministic noise.
func steady(rng *stats.RNG, level float64, n int, noise float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = level + noise*(rng.Float64()-0.5)
	}
	return out
}

// detectors under test, constructed fresh per subtest.
func allDetectors(t *testing.T) map[string]func() Detector {
	t.Helper()
	return map[string]func() Detector{
		"threshold": func() Detector {
			d, err := NewThreshold(0.15)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"ewma": func() Detector {
			d, err := NewEWMA(0.3, 4, 0.02, 5)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"cusum": func() Detector {
			d, err := NewCUSUM(0.05, 0.2, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"holtwinters": func() Detector {
			d, err := NewHoltWinters(0.5, 0.3, 0, 5, 0.08, 0)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"kalman": func() Detector {
			d, err := NewKalman(1e-4, 1e-3, 4)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

// TestDetectorsCatchLevelShift: every detector must flag a large sudden
// QoS drop after a quiet training period, and must not fire constantly on
// quiet data.
func TestDetectorsCatchLevelShift(t *testing.T) {
	t.Parallel()

	for name, build := range allDetectors(t) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			det := build()
			rng := stats.NewRNG(42)
			falseAlarms := 0
			for _, x := range steady(rng, 0.9, 200, 0.01) {
				if det.Update(x) {
					falseAlarms++
				}
			}
			if falseAlarms > 4 {
				t.Errorf("%d false alarms on steady data", falseAlarms)
			}
			// Sudden drop to 0.3: must alarm within a few samples.
			alarmed := false
			for i, x := range steady(rng, 0.3, 10, 0.01) {
				if det.Update(x) {
					alarmed = true
					_ = i
					break
				}
			}
			if !alarmed {
				t.Error("level shift from 0.9 to 0.3 not detected")
			}
		})
	}
}

// TestDetectorsRecover: after the shift is absorbed, detectors must stop
// alarming at the new level.
func TestDetectorsRecover(t *testing.T) {
	t.Parallel()

	for name, build := range allDetectors(t) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			det := build()
			rng := stats.NewRNG(7)
			for _, x := range steady(rng, 0.9, 100, 0.01) {
				det.Update(x)
			}
			for _, x := range steady(rng, 0.4, 50, 0.01) {
				det.Update(x)
			}
			// The last stretch at the new level must be mostly quiet.
			alarms := 0
			for _, x := range steady(rng, 0.4, 100, 0.01) {
				if det.Update(x) {
					alarms++
				}
			}
			if alarms > 8 {
				t.Errorf("%d alarms after re-stabilizing", alarms)
			}
		})
	}
}

func TestDetectorsResetAndPredict(t *testing.T) {
	t.Parallel()

	for name, build := range allDetectors(t) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			det := build()
			rng := stats.NewRNG(3)
			for _, x := range steady(rng, 0.8, 50, 0.01) {
				det.Update(x)
			}
			if p := det.Predict(); math.Abs(p-0.8) > 0.1 {
				t.Errorf("Predict() = %v after training at 0.8", p)
			}
			det.Reset()
			// First post-reset sample must never be abnormal (no model).
			if det.Update(0.1) {
				t.Error("first sample after Reset must not be abnormal")
			}
		})
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()

	cases := []struct {
		name string
		err  error
	}{
		{"threshold", func() error { _, err := NewThreshold(0); return err }()},
		{"threshold nan", func() error { _, err := NewThreshold(math.NaN()); return err }()},
		{"ewma alpha", func() error { _, err := NewEWMA(0, 4, 0, 0); return err }()},
		{"ewma k", func() error { _, err := NewEWMA(0.5, 0, 0, 0); return err }()},
		{"ewma warmup", func() error { _, err := NewEWMA(0.5, 2, 0, -1); return err }()},
		{"cusum h", func() error { _, err := NewCUSUM(0.1, 0, 0.1); return err }()},
		{"cusum drift", func() error { _, err := NewCUSUM(-1, 1, 0.1); return err }()},
		{"hw alpha", func() error { _, err := NewHoltWinters(0, 0.3, 0, 3, 0, 0); return err }()},
		{"hw period", func() error { _, err := NewHoltWinters(0.5, 0.3, 0, 3, 0, -2); return err }()},
		{"kalman", func() error { _, err := NewKalman(0, 1, 3); return err }()},
	}
	for _, tt := range cases {
		if !errors.Is(tt.err, ErrDetectorConfig) {
			t.Errorf("%s: error = %v, want ErrDetectorConfig", tt.name, tt.err)
		}
	}
}

// TestCUSUMCatchesSlowDrift: CUSUM's reason to exist is accumulating
// small persistent shifts that a jump detector misses.
func TestCUSUMCatchesSlowDrift(t *testing.T) {
	t.Parallel()

	cusum, err := NewCUSUM(0.01, 0.15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	jump, err := NewThreshold(0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Slow decay of 0.004 per step: each single step is below the jump
	// threshold forever.
	level := 0.9
	cusumAlarm, jumpAlarm := false, false
	for i := 0; i < 200; i++ {
		level -= 0.004
		cusumAlarm = cusum.Update(level) || cusumAlarm
		jumpAlarm = jump.Update(level) || jumpAlarm
	}
	if !cusumAlarm {
		t.Error("CUSUM failed to accumulate a slow drift")
	}
	if jumpAlarm {
		t.Error("threshold detector should not fire on per-step drift below delta")
	}
}

// TestHoltWintersTracksTrend: the trend component must absorb a steady
// ramp that would fool a level-only detector.
func TestHoltWintersTracksTrend(t *testing.T) {
	t.Parallel()

	hw, err := NewHoltWinters(0.5, 0.3, 0, 6, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	level := 0.2
	alarms := 0
	for i := 0; i < 150; i++ {
		level += 0.003 // gentle ramp
		if hw.Update(level) {
			alarms++
		}
	}
	if alarms > 3 {
		t.Errorf("%d alarms on a smooth ramp; trend not tracked", alarms)
	}
	// A break in the ramp must be flagged.
	if !hw.Update(level - 0.4) {
		t.Error("ramp break not detected")
	}
}

// TestHoltWintersSeasonal: with seasonality enabled, a repeating daily
// pattern must not alarm, while a sample violating the pattern must.
func TestHoltWintersSeasonal(t *testing.T) {
	t.Parallel()

	const period = 8
	hw, err := NewHoltWinters(0.3, 0.1, 0.4, 6, 0.05, period)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(i int) float64 {
		return 0.7 + 0.15*math.Sin(2*math.Pi*float64(i%period)/period)
	}
	alarms := 0
	warm := 6 * period
	for i := 0; i < 12*period; i++ {
		if hw.Update(pattern(i)) && i > warm {
			alarms++
		}
	}
	if alarms > 3 {
		t.Errorf("%d alarms on a learned seasonal pattern", alarms)
	}
	if !hw.Update(pattern(12*period) - 0.5) {
		t.Error("seasonal violation not detected")
	}
}

// TestKalmanGateScalesWithNoise: a noisy but stationary series should not
// alarm when R reflects the noise.
func TestKalmanGateScalesWithNoise(t *testing.T) {
	t.Parallel()

	k, err := NewKalman(1e-5, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	alarms := 0
	for i := 0; i < 500; i++ {
		if k.Update(0.5 + 0.05*rng.NormFloat64()) {
			alarms++
		}
	}
	if alarms > 10 {
		t.Errorf("%d alarms on stationary noise", alarms)
	}
}

func TestDeviceComposite(t *testing.T) {
	t.Parallel()

	dev, err := NewDevice(2, func(int) (Detector, error) { return NewThreshold(0.2) })
	if err != nil {
		t.Fatal(err)
	}
	if dev.Services() != 2 {
		t.Errorf("Services() = %d", dev.Services())
	}
	if _, err := dev.Update([]float64{0.9}); err == nil {
		t.Error("dimension mismatch must error")
	}
	ab, err := dev.Update([]float64{0.9, 0.8})
	if err != nil || ab {
		t.Errorf("first sample: ab=%v err=%v", ab, err)
	}
	// Service 1 drops hard, service 0 stays.
	ab, err = dev.Update([]float64{0.9, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !ab {
		t.Error("a_k(j) must be true when any service is abnormal")
	}
	// Service 0 drops hard: the detector after it must still see its
	// sample.
	if ab, err = dev.Update([]float64{0.2, 0.35}); err != nil || !ab {
		t.Fatalf("service 0 drop: ab=%v err=%v", ab, err)
	}
	if p := dev.Predict(); len(p) != 2 || p[0] != 0.2 || p[1] != 0.35 {
		t.Errorf("Predict = %v, want [0.2 0.35]: every detector consumes its sample", p)
	}
	dev.Reset()
	if ab, err := dev.Update([]float64{0.9, 0.9}); err != nil || ab {
		t.Errorf("first sample after Reset: ab=%v err=%v", ab, err)
	}
}

func TestDeviceConstructorErrors(t *testing.T) {
	t.Parallel()

	if _, err := NewDevice(0, func(int) (Detector, error) { return NewThreshold(0.1) }); !errors.Is(err, ErrDetectorConfig) {
		t.Errorf("d=0 error = %v", err)
	}
	if _, err := NewDevice(1, func(int) (Detector, error) { return nil, nil }); !errors.Is(err, ErrDetectorConfig) {
		t.Errorf("nil detector error = %v", err)
	}
	wantErr := errors.New("boom")
	if _, err := NewDevice(1, func(int) (Detector, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("factory error = %v, want wrapped boom", err)
	}
}
