package anomalia

import (
	"errors"
	"reflect"
	"testing"

	"anomalia/internal/paperfig"
)

// fleetWindow builds the canonical example: four devices drop together
// (network event) while one drops alone (local fault). 1 service.
func fleetWindow() (prev, cur [][]float64, abnormal []int) {
	prev = [][]float64{{0.95}, {0.94}, {0.95}, {0.96}, {0.60}}
	cur = [][]float64{{0.55}, {0.54}, {0.56}, {0.55}, {0.20}}
	abnormal = []int{0, 1, 2, 3, 4}
	return prev, cur, abnormal
}

func TestCharacterizeQuickstart(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	out, err := Characterize(prev, cur, abnormal, WithRadius(0.03), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) != 5 {
		t.Fatalf("reports = %d, want 5", len(out.Reports))
	}
	if len(out.Massive) != 4 {
		t.Errorf("Massive = %v, want the co-moving four", out.Massive)
	}
	if len(out.Isolated) != 1 || out.Isolated[0] != 4 {
		t.Errorf("Isolated = %v, want [4]", out.Isolated)
	}
	if len(out.Unresolved) != 0 {
		t.Errorf("Unresolved = %v, want empty", out.Unresolved)
	}
	for _, rep := range out.Reports {
		if rep.Class.String() == "unknown" {
			t.Errorf("device %d has unknown class", rep.Device)
		}
		if rep.Rule == "" || rep.Rule == "none" {
			t.Errorf("device %d decided by %q", rep.Device, rep.Rule)
		}
	}
}

func TestCharacterizeDevice(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	rep, err := CharacterizeDevice(prev, cur, abnormal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != Isolated || rep.Rule != "theorem5" {
		t.Errorf("device 4: %v by %q", rep.Class, rep.Rule)
	}
	rep, err = CharacterizeDevice(prev, cur, abnormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != Massive {
		t.Errorf("device 0: %v, want massive", rep.Class)
	}
	if len(rep.DenseMotions) == 0 || rep.Cost.MaximalMotions < 1 {
		t.Error("massive report must carry its dense motions and cost")
	}
}

// TestCharacterizeDeviceMatchesCharacterize pins CharacterizeDevice(j)
// to the Report Characterize gives device j, cost included, for every
// abnormal j: on the paper's Figure 5 ring, which only Theorem 7
// decides, and on a chain of abnormal devices much longer than 4r, one
// connected component of massive and isolated devices.
func TestCharacterizeDeviceMatchesCharacterize(t *testing.T) {
	t.Parallel()

	fig, err := paperfig.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// The chain moves as one along one axis, its gaps cycling through
	// 0.011, 0.02, 0.029 and 0.038, so its dense motions overlap and
	// differ in size; it spans ~0.7, over 20r at the default r = 0.03.
	var chainPrev, chainCur [][]float64
	x := 0.05
	for i := range 30 {
		chainPrev = append(chainPrev, []float64{x, 0.5})
		chainCur = append(chainCur, []float64{x, 0.6})
		x += 0.011 + 0.009*float64(i%4)
	}
	for _, tc := range []struct {
		name      string
		prev, cur [][]float64
		opts      []Option
	}{
		{"figure5", stateRows(fig.Pair.Prev), stateRows(fig.Pair.Cur), []Option{WithRadius(fig.R), WithTau(fig.Tau)}},
		{"chain", chainPrev, chainCur, nil},
	} {
		abnormal := make([]int, len(tc.prev))
		for j := range abnormal {
			abnormal[j] = j
		}
		out, err := Characterize(tc.prev, tc.cur, abnormal, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Reports) != len(abnormal) {
			t.Fatalf("%s: %d Reports for %d abnormal devices", tc.name, len(out.Reports), len(abnormal))
		}
		for _, want := range out.Reports {
			got, err := CharacterizeDevice(tc.prev, tc.cur, abnormal, want.Device, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s device %d: CharacterizeDevice %+v, Characterize %+v", tc.name, want.Device, got, want)
			}
		}
	}
}

func TestCharacterizeValidation(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	if _, err := Characterize(nil, cur, abnormal); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil prev error = %v", err)
	}
	if _, err := Characterize(prev[:3], cur, abnormal); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("mismatched snapshot sizes error = %v", err)
	}
	if _, err := Characterize(prev, cur, abnormal, WithRadius(0.9)); err == nil {
		t.Error("invalid radius must error")
	}
	if _, err := Characterize(prev, cur, abnormal, WithTau(0)); err == nil {
		t.Error("invalid tau must error")
	}
	if _, err := Characterize(prev, cur, []int{99}); err == nil {
		t.Error("abnormal device out of range must error")
	}
	if _, err := CharacterizeDevice(prev, cur, []int{0, 1}, 4); err == nil {
		t.Error("characterizing a non-abnormal device must error")
	}
	ragged := [][]float64{{0.5}, {0.5, 0.5}}
	if _, err := Characterize(ragged, ragged, []int{0}); err == nil {
		t.Error("ragged snapshot must error")
	}
}

func TestClassString(t *testing.T) {
	t.Parallel()

	if Isolated.String() != "isolated" || Massive.String() != "massive" ||
		Unresolved.String() != "unresolved" || Class(0).String() != "unknown" {
		t.Error("Class.String misbehaved")
	}
}

// TestUnresolvedSurfaced: the paper's Figure 3 configuration through the
// public API — two overlapping explanations, devices 0 and 4 unresolved.
func TestUnresolvedSurfaced(t *testing.T) {
	t.Parallel()

	prev := [][]float64{{0.10}, {0.20}, {0.25}, {0.30}, {0.40}}
	cur := [][]float64{{0.15}, {0.25}, {0.30}, {0.35}, {0.45}}
	out, err := Characterize(prev, cur, []int{0, 1, 2, 3, 4}, WithRadius(0.1), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unresolved) != 2 || out.Unresolved[0] != 0 || out.Unresolved[1] != 4 {
		t.Errorf("Unresolved = %v, want [0 4]", out.Unresolved)
	}
	if len(out.Massive) != 3 {
		t.Errorf("Massive = %v, want [1 2 3]", out.Massive)
	}
}

// TestCheapMode: disabling Exact leaves hard cases unresolved by "none".
func TestCheapMode(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	out, err := Characterize(prev, cur, abnormal, WithExact(false))
	if err != nil {
		t.Fatal(err)
	}
	// The quickstart window is easy: results must match exact mode.
	if len(out.Massive) != 4 || len(out.Isolated) != 1 {
		t.Errorf("cheap mode changed easy verdicts: %+v", out)
	}
}

func TestWithBudget(t *testing.T) {
	t.Parallel()

	// The Figure 5 ring needs the exact search; a 1-node budget must
	// surface an error rather than a wrong verdict.
	prev := [][]float64{{0.298}, {0.302}, {0.488}, {0.492}, {0.678}, {0.682}, {0.488}, {0.492}}
	cur := [][]float64{{0.298}, {0.302}, {0.398}, {0.402}, {0.298}, {0.302}, {0.158}, {0.162}}
	abnormal := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Characterize(prev, cur, abnormal, WithRadius(0.1), WithTau(3), WithBudget(1))
	if err == nil {
		t.Error("budget of 1 must error on a Theorem-7 configuration")
	}
}

func TestDimensioningHelpers(t *testing.T) {
	t.Parallel()

	tau, err := TuneTau(1000, 0.03, 2, 0.005, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 1 || tau > 6 {
		t.Errorf("TuneTau = %d", tau)
	}
	r, err := TuneRadius(1000, 2, 3, 0.005, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r >= 0.25 {
		t.Errorf("TuneRadius = %v", r)
	}
	p, err := NeighborhoodCDF(1000, 0.03, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Errorf("NeighborhoodCDF = %v", p)
	}
	q, err := IsolatedImpactCDF(15000, 0.03, 2, 2, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.997 {
		t.Errorf("IsolatedImpactCDF = %v", q)
	}
}

func TestDetectorConstructors(t *testing.T) {
	t.Parallel()

	builders := map[string]func() (Detector, error){
		"threshold":   func() (Detector, error) { return NewThresholdDetector(0.1) },
		"ewma":        func() (Detector, error) { return NewEWMADetector(0.3, 4, 0.01, 3) },
		"cusum":       func() (Detector, error) { return NewCUSUMDetector(0.02, 0.2, 0.1) },
		"holtwinters": func() (Detector, error) { return NewHoltWintersDetector(0.5, 0.3, 0, 5, 0.05, 0) },
		"kalman":      func() (Detector, error) { return NewKalmanDetector(1e-4, 1e-3, 4) },
	}
	for name, build := range builders {
		det, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Train then shock.
		for i := 0; i < 100; i++ {
			det.Update(0.9)
		}
		if !det.Update(0.2) {
			t.Errorf("%s: missed an obvious shock", name)
		}
		det.Reset()
		if det.Update(0.5) {
			t.Errorf("%s: first sample after reset flagged", name)
		}
	}
	if _, err := NewThresholdDetector(-1); err == nil {
		t.Error("invalid detector parameters must error")
	}
}
