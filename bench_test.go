package anomalia

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VII), plus the ablations from DESIGN.md and micro
// benchmarks of the public API. Each Benchmark* regenerates the full
// artifact once per iteration; run
//
//	go test -bench=. -benchmem
//
// or regenerate the human-readable tables with cmd/anomalia-experiments.

import (
	"encoding/json"
	"io"
	"net"
	"testing"

	"anomalia/internal/dirnet"
	"anomalia/internal/experiments"
	"anomalia/internal/metrics"
	"anomalia/internal/motion"
	"anomalia/internal/scenario"
	"anomalia/internal/snapio"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// benchSweep shrinks the (A, G) grid so one iteration stays in benchmark
// territory while exercising the full pipeline; the experiments binary
// runs the paper-sized grid.
func benchSweep() experiments.SweepConfig {
	cfg := experiments.DefaultSweep()
	cfg.As = []int{1, 20, 40}
	cfg.Gs = []float64{0, 0.5, 1}
	cfg.Steps = 5
	return cfg
}

func benchTables() experiments.TablesConfig {
	cfg := experiments.DefaultTables()
	cfg.Steps = 10
	return cfg
}

func BenchmarkFig6a(b *testing.B) {
	cfg := experiments.DefaultFig6a()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	cfg := experiments.DefaultFig6b()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	cfg := benchTables()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	cfg := benchTables()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := benchSweep()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	cfg := benchSweep()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := benchSweep()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBucketSize(b *testing.B) {
	cfg := experiments.DefaultAblation()
	cfg.Steps = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBucketSize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExactness(b *testing.B) {
	cfg := experiments.DefaultAblation()
	cfg.Steps = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationExactness(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGranularity regenerates the Section VII-C sampling-frequency
// study (same error load across coarser/finer windows).
func BenchmarkGranularity(b *testing.B) {
	cfg := experiments.DefaultGranularity()
	cfg.Bursts = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Granularity(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkByzantine regenerates the collusion study (the paper's future
// work): attack success rate versus colluder count.
func BenchmarkByzantine(b *testing.B) {
	cfg := experiments.DefaultByzantine()
	cfg.Windows = 5
	cfg.ColluderCounts = []int{1, 3, 5}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationByzantine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorStudy regenerates the error-detection-function
// comparison on synthesized traces.
func BenchmarkDetectorStudy(b *testing.B) {
	cfg := experiments.DefaultDetectorStudy()
	cfg.Traces = 10
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DetectorStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistCost regenerates the distributed-deployment traffic study.
func BenchmarkDistCost(b *testing.B) {
	cfg := experiments.DefaultDistCost()
	cfg.As = []int{10, 40}
	cfg.Steps = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DistCost(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWindow produces one paper-scale observation window for the micro
// benchmarks of the public API.
func benchWindow(b *testing.B, a int, g float64) (prev, cur [][]float64, abnormal []int) {
	b.Helper()
	gen, err := scenario.New(scenario.Config{
		N: 1000, D: 2, R: 0.03, Tau: 3, A: a, G: g,
		Concomitant: true, MaxShift: 0.06, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	step, err := gen.Step()
	if err != nil {
		b.Fatal(err)
	}
	n := step.Pair.N()
	prev = make([][]float64, n)
	cur = make([][]float64, n)
	for j := 0; j < n; j++ {
		prev[j] = step.Pair.Prev.At(j)
		cur[j] = step.Pair.Cur.At(j)
	}
	return prev, cur, step.Abnormal
}

// BenchmarkCharacterizeWindow measures a fleet-wide characterization of
// one paper-scale window (n=1000, A=20).
func BenchmarkCharacterizeWindow(b *testing.B) {
	prev, cur, abnormal := benchWindow(b, 20, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(prev, cur, abnormal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeWindowCheap measures the Theorem-6-only mode.
func BenchmarkCharacterizeWindowCheap(b *testing.B) {
	prev, cur, abnormal := benchWindow(b, 20, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(prev, cur, abnormal, WithExact(false)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeSingleDevice measures the per-device local
// operation a monitored device would run on itself.
func BenchmarkCharacterizeSingleDevice(b *testing.B) {
	prev, cur, abnormal := benchWindow(b, 20, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		device := abnormal[i%len(abnormal)]
		if _, err := CharacterizeDevice(prev, cur, abnormal, device); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeLargeFleet measures one window at 10x the paper's
// scale (n=10000, A=100). Following the §VII-A dimensioning rule the
// radius shrinks with the fleet (r=0.01 keeps the expected error-ball
// population at the paper's level); decision cost then stays proportional
// to the abnormal population and its local density, not the fleet size.
func BenchmarkCharacterizeLargeFleet(b *testing.B) {
	prev, cur, abnormal := benchLargeWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(prev, cur, abnormal, WithRadius(0.01)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLargeWindow(b *testing.B) (prev, cur [][]float64, abnormal []int) {
	b.Helper()
	gen, err := scenario.New(scenario.Config{
		N: 10000, D: 2, R: 0.01, Tau: 3, A: 100, G: 0.3,
		Concomitant: true, MaxShift: 0.02, Seed: 4242,
	})
	if err != nil {
		b.Fatal(err)
	}
	step, err := gen.Step()
	if err != nil {
		b.Fatal(err)
	}
	n := step.Pair.N()
	prev = make([][]float64, n)
	cur = make([][]float64, n)
	for j := 0; j < n; j++ {
		prev[j] = step.Pair.Prev.At(j)
		cur[j] = step.Pair.Cur.At(j)
	}
	return prev, cur, step.Abnormal
}

// BenchmarkEncodeOutcome measures the JSON window record of a storm-like
// window: six 500-device R2 clusters, each one shared dense family, plus
// 20 lone gateway faults, n=200k in exact mode (the shape of
// internal/core's BenchmarkCharacterizeMassEvent). It reports the
// record's size as record-bytes.
func BenchmarkEncodeOutcome(b *testing.B) {
	const (
		n       = 200_000
		d       = 2
		r       = 0.002
		cluster = 500
	)
	rng := stats.NewRNG(200)
	flatPrev := make([]float64, n*d)
	flatCur := make([]float64, n*d)
	for i := range flatPrev {
		flatPrev[i] = rng.Float64()
		flatCur[i] = rng.Float64()
	}
	place := func(dev int, x, y, sx, sy float64) {
		flatPrev[dev*d], flatPrev[dev*d+1] = x, y
		flatCur[dev*d], flatCur[dev*d+1] = x+sx, y+sy
	}
	var abnormal []int
	for c := 0; c < 6; c++ {
		cx, cy := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		sx, sy := (rng.Float64()-0.5)*r, (rng.Float64()-0.5)*r
		for dev := c * 30_000; dev < c*30_000+cluster; dev++ {
			ox, oy := (rng.Float64()-0.5)*r/2, (rng.Float64()-0.5)*r/2
			place(dev, cx+ox, cy+oy, sx, sy)
			abnormal = append(abnormal, dev)
		}
	}
	for i := 0; i < 20; i++ {
		x, y := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		place(190_000+500*i, x, y, (rng.Float64()-0.5)*r, (rng.Float64()-0.5)*r)
		abnormal = append(abnormal, 190_000+500*i)
	}
	out, err := Characterize(snapio.Rows(flatPrev, nil, d), snapio.Rows(flatCur, nil, d), abnormal, WithRadius(r))
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Massive) != 6*cluster {
		b.Fatalf("%d massive devices, want %d", len(out.Massive), 6*cluster)
	}
	var data []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, err = json.Marshal(out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "record-bytes")
}

// BenchmarkMonitorObserve measures the full streaming path: detection
// plus characterization for a 200-device fleet.
func BenchmarkMonitorObserve(b *testing.B) {
	const n = 200
	m, err := NewMonitor(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(7)
	healthy := make([][]float64, n)
	faulty := make([][]float64, n)
	for i := range healthy {
		healthy[i] = []float64{0.95 + 0.004*rng.Float64(), 0.95 + 0.004*rng.Float64()}
		if i < 10 {
			faulty[i] = []float64{0.5 + 0.004*rng.Float64(), 0.5 + 0.004*rng.Float64()}
		} else {
			faulty[i] = healthy[i]
		}
	}
	if _, err := m.Observe(healthy); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(healthy); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Observe(faulty); err != nil {
			b.Fatal(err)
		}
		// Re-seat the detectors on the healthy level.
		if _, err := m.Observe(healthy); err != nil {
			b.Fatal(err)
		}
	}
}

// bench1MN is the fleet size of the raw-speed tick benchmarks; the
// §VII-A dimensioning rule sets the matching radius (r=0.001 keeps the
// expected error-ball population at the paper's level for n=1e6, d=2).
const (
	bench1MN = 1_000_000
	bench1MR = 0.001
)

// benchSnap1M builds the million-device ingest fixtures. Positions are
// uniform; the devices whose QoS point falls in the box [0.2,0.4)² —
// ~4% of the fleet — are jointly shifted by +0.1 in snapB, a paper-R2
// mass event: alternating the snapshots trips exactly those devices'
// threshold detectors, and the joint shift is an r-consistent motion,
// so the window's characterization cost is bounded by the event's
// size, not the fleet's. Repeating either snapshot is a quiet tick.
func benchSnap1M(b *testing.B) (snapA, snapB [][]float64, faulty []int) {
	b.Helper()
	const d = 2
	rng := stats.NewRNG(5)
	flatA := make([]float64, bench1MN*d)
	flatB := make([]float64, bench1MN*d)
	for dev := 0; dev < bench1MN; dev++ {
		x, y := rng.Float64(), rng.Float64()
		flatA[dev*d], flatA[dev*d+1] = x, y
		if x >= 0.2 && x < 0.4 && y >= 0.2 && y < 0.4 {
			x, y = x+0.1, y+0.1
			faulty = append(faulty, dev)
		}
		flatB[dev*d], flatB[dev*d+1] = x, y
	}
	return snapio.Rows(flatA, nil, d), snapio.Rows(flatB, nil, d), faulty
}

// BenchmarkTickBare1M is the denominator of the ingest acceptance gate:
// characterization alone — no parsing, no detection, no state copy — of
// the all-abnormal million-device window on a prebuilt motion pair.
func BenchmarkTickBare1M(b *testing.B) {
	snapA, snapB, faulty := benchSnap1M(b)
	prev, err := space.StateFromPoints(snapA)
	if err != nil {
		b.Fatal(err)
	}
	cur, err := space.StateFromPoints(snapB)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.radius = bench1MR
	// Theorem-6-only mode: the mass event proves massive via Theorem 6;
	// the box-boundary devices would otherwise fall through to the exact
	// collection search, whose budget blowups measure the NSC search,
	// not the ingest overhead this pair of benchmarks gates.
	cfg.exact = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := characterizePair(pair, faulty, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickObserve1M is the numerator: the same all-abnormal window
// through the full streaming path — snapshot copy, sharded detector
// walk, characterization — serial and at the default worker count. The
// bench gate holds its time within ~2x of BenchmarkTickBare1M.
func BenchmarkTickObserve1M(b *testing.B) {
	snapA, snapB, _ := benchSnap1M(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := NewMonitor(bench1MN, 2, WithRadius(bench1MR),
				WithExact(false), WithIngestWorkers(bc.workers))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Observe(snapA); err != nil {
				b.Fatal(err)
			}
			snaps := [2][][]float64{snapB, snapA}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Observe(snaps[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTickIngestDetect1M isolates the front-end the tentpole
// optimizes: a quiet steady-state tick (validate, copy, walk a million
// detectors, nothing abnormal). The double-buffered monitor makes this
// allocation-free after warm-up, which the bench gate pins.
func BenchmarkTickIngestDetect1M(b *testing.B) {
	snapA, _, _ := benchSnap1M(b)
	m, err := NewMonitor(bench1MN, 2, WithRadius(bench1MR))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Observe(snapA); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.Observe(snapA)
		if err != nil {
			b.Fatal(err)
		}
		if out != nil {
			b.Fatal("quiet tick produced an outcome")
		}
	}
}

// BenchmarkTickObserveMetrics1M is the instrumented counterpart of
// BenchmarkTickIngestDetect1M: the same quiet steady-state tick on a
// monitor feeding a metrics registry. Recording is atomic stores into
// pre-registered series, so the bench gate pins this benchmark's
// allocs/op to within one allocation of the plain quiet tick — the
// observability layer must not tax the hot path it observes.
func BenchmarkTickObserveMetrics1M(b *testing.B) {
	snapA, _, _ := benchSnap1M(b)
	m, err := NewMonitor(bench1MN, 2, WithRadius(bench1MR),
		WithMetrics(metrics.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Observe(snapA); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.Observe(snapA)
		if err != nil {
			b.Fatal(err)
		}
		if out != nil {
			b.Fatal("quiet tick produced an outcome")
		}
	}
}

// BenchmarkTickObservePartial1M is the degraded-mode counterpart of
// BenchmarkTickIngestDetect1M: the same quiet steady-state tick through
// ObservePartial with the health tracker enabled but idle (every report
// delivered and clean, every device live). The fast path proves the
// tick is an Observe tick before touching any per-device health state,
// so the cost and allocation profile must match the plain quiet tick —
// the bench gate pins both the alloc ceiling and the latency ratio.
func BenchmarkTickObservePartial1M(b *testing.B) {
	snapA, _, _ := benchSnap1M(b)
	m, err := NewMonitor(bench1MN, 2, WithRadius(bench1MR),
		WithHealthPolicy(HealthPolicy{HoldTicks: 2, ReadmitTicks: 2}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.ObservePartial(snapA); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.ObservePartial(snapA)
		if err != nil {
			b.Fatal(err)
		}
		if out != nil {
			b.Fatal("quiet partial tick produced an outcome")
		}
	}
	b.StopTimer()
	if st := m.HealthStats(); st != (HealthStats{Live: bench1MN}) {
		b.Fatalf("idle health layer did work: %+v", st)
	}
}

// BenchmarkTickObserveNetworked1M is the networked-directory
// counterpart of BenchmarkTickIngestDetect1M: the same quiet
// steady-state tick on a monitor configured with a directory client —
// breaker closed, shard healthy behind an in-process pipe. A quiet
// window never reaches the decision path, so the client must cost
// nothing on the tick: the bench gate pins this benchmark's allocs/op
// to within one allocation of the plain quiet tick.
func BenchmarkTickObserveNetworked1M(b *testing.B) {
	snapA, _, _ := benchSnap1M(b)
	srv := dirnet.NewServer()
	defer srv.Close()
	m, err := NewMonitor(bench1MN, 2, WithRadius(bench1MR),
		WithDirectory(DirectoryConfig{
			Addrs: []string{"bench-0"},
			Dial: func(string) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go srv.HandleConn(c2)
				return c1, nil
			},
		}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Observe(snapA); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.Observe(snapA)
		if err != nil {
			b.Fatal(err)
		}
		if out != nil {
			b.Fatal("quiet tick produced an outcome")
		}
	}
	b.StopTimer()
	if ds := m.DirStats(); ds != (DirStats{}) {
		b.Fatalf("quiet networked ticks touched the wire: %+v", ds)
	}
}
