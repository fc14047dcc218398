package anomalia

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"anomalia/internal/detect"
	"anomalia/internal/metrics"
)

// TestMonitorMetricsFeed drives an instrumented monitor through a mix
// of quiet, abnormal and degraded windows and checks the registry
// ledger it leaves behind.
func TestMonitorMetricsFeed(t *testing.T) {
	t.Parallel()

	const n = 10
	reg := metrics.NewRegistry()
	m, err := NewMonitor(n, 1, WithRadius(0.03), WithTau(3), WithDistributed(true), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Observe(fleetSnapshot(n, 0.95, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Two consecutive abnormal windows with overlapping abnormal sets:
	// each builds its own directory, and the churn gauge reflects the
	// set overlap.
	if out, err := m.Observe(fleetSnapshot(n, 0.95, map[int]float64{
		0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49, 4: 0.5,
	})); err != nil || out == nil {
		t.Fatalf("abnormal window: out=%v err=%v", out, err)
	}
	if out, err := m.Observe(fleetSnapshot(n, 0.95, map[int]float64{
		0: 0.95, 1: 0.95, 2: 0.95, 3: 0.9, 4: 0.99, 5: 0.2,
	})); err != nil || out == nil {
		t.Fatalf("second abnormal window: out=%v err=%v", out, err)
	}
	// One degraded window: a device goes silent on the partial path.
	// The window is abnormal too — devices 3-5 jumped back to baseline —
	// so it builds a third directory.
	snap := fleetSnapshot(n, 0.95, nil)
	snap[7] = nil
	if _, err := m.ObservePartial(snap); err != nil {
		t.Fatal(err)
	}

	// The health, wire and runtime families are filled on scrape.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	count := func(name string) int64 {
		return reg.Counter(name, "").Value()
	}
	if got := count("anomalia_ticks_total"); got != 8 {
		t.Errorf("ticks_total = %d, want 8", got)
	}
	if got := count("anomalia_abnormal_windows_total"); got != 3 {
		t.Errorf("abnormal_windows_total = %d, want 3", got)
	}
	if got := count("anomalia_directory_builds_total"); got != 3 {
		t.Errorf("directory_builds_total = %d, want 3 (one per abnormal window)", got)
	}
	// Abnormal sets {0..4} then {0..4 minus kept}∪{5}: both windows
	// overlap, so churn must be strictly between 0 and 1.
	churn := reg.Gauge("anomalia_abnormal_churn_ratio", "").Value()
	if !(churn > 0 && churn < 1) {
		t.Errorf("churn ratio = %v, want in (0,1)", churn)
	}
	stale := reg.Gauge("anomalia_health_devices", "", metrics.Label{Name: "state", Value: "stale"}).Value()
	if stale != 1 {
		t.Errorf("stale gauge = %v, want 1 (device 7 silent)", stale)
	}
	if heap := reg.Gauge("anomalia_go_heap_alloc_bytes", "").Value(); heap <= 0 {
		t.Errorf("heap gauge = %v, want > 0", heap)
	}

	for _, want := range []string{
		"# TYPE anomalia_tick_seconds histogram",
		`anomalia_tick_seconds_bucket{phase="detect",le="+Inf"} 8`,
		`anomalia_tick_seconds_bucket{phase="characterize",le="+Inf"} 3`,
		`anomalia_health_devices{state="stale"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTickPhases pins the phase split of a tick. On either bank every
// committed tick, strict or partial, is one sharded pass — the
// classification and health transitions run inside it — recorded whole
// as detect, and no ingest series is exported. A rejected tick records
// nothing.
func TestTickPhases(t *testing.T) {
	t.Parallel()

	const n = 10
	bank, err := NewMonitor(n, 1, WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bank.bank.(*detect.ThresholdBank); !ok {
		t.Fatal("default monitor runs no Threshold bank")
	}
	generic, err := NewMonitor(n, 1, WithMetrics(metrics.NewRegistry()), WithDetectorFactory(genericThreshold))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := generic.bank.(*detect.DeviceBank); !ok {
		t.Fatal("generic factory runs no per-device bank")
	}
	silent := fleetSnapshot(n, 0.95, nil)
	silent[7] = nil
	corrupt := fleetSnapshot(n, 0.95, nil)
	corrupt[3][0] = math.NaN()
	for _, tc := range []struct {
		name    string
		m       *Monitor
		partial bool
		snap    [][]float64
		detect  int64
	}{
		{"strict", bank, false, fleetSnapshot(n, 0.95, nil), 1},
		{"strict again", bank, false, fleetSnapshot(n, 0.95, nil), 2},
		{"fast partial", bank, true, fleetSnapshot(n, 0.95, nil), 3},
		{"partial with a fault over an all-live fleet", bank, true, silent, 4},
		{"partial with an impaired device", bank, true, silent, 5},
		{"rejected", bank, false, corrupt, 5},
		{"generic strict", generic, false, fleetSnapshot(n, 0.95, nil), 1},
		{"generic fast partial", generic, true, fleetSnapshot(n, 0.95, nil), 2},
		{"generic partial with a fault over an all-live fleet", generic, true, silent, 3},
		{"generic partial with an impaired device", generic, true, silent, 4},
		{"generic rejected", generic, false, corrupt, 4},
	} {
		observe := tc.m.Observe
		if tc.partial {
			observe = tc.m.ObservePartial
		}
		_, err := observe(tc.snap)
		if rejected := strings.HasSuffix(tc.name, "rejected"); (err != nil) != rejected {
			t.Fatalf("%s: error %v", tc.name, err)
		}
		if got := tc.m.mx.tickDetect.Count(); got != tc.detect {
			t.Errorf("%s: %d detect samples, want %d", tc.name, got, tc.detect)
		}
	}
	for _, m := range []*Monitor{bank, generic} {
		var b strings.Builder
		if err := m.cfg.metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(), `phase="ingest"`) {
			t.Errorf("%T monitor exports an ingest phase", m.bank)
		}
		if !strings.Contains(b.String(), `anomalia_tick_seconds_count{phase="detect"}`) {
			t.Errorf("%T monitor exports no detect phase", m.bank)
		}
	}
}

// TestResetClearsChurnBaseline: after Reset, the first abnormal window
// scores churn against the empty set — 1 — even when its abnormal set
// overlaps the last one seen before the reset.
func TestResetClearsChurnBaseline(t *testing.T) {
	t.Parallel()

	const n = 10
	reg := metrics.NewRegistry()
	m, err := NewMonitor(n, 1, WithRadius(0.03), WithTau(3), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	event := map[int]float64{0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49, 4: 0.5}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			if _, err := m.Observe(fleetSnapshot(n, 0.95, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if out, err := m.Observe(fleetSnapshot(n, 0.95, event)); err != nil || out == nil {
			t.Fatalf("round %d abnormal window: out=%v err=%v", round, out, err)
		}
		if got := reg.Gauge("anomalia_abnormal_churn_ratio", "").Value(); got != 1 {
			t.Errorf("round %d: churn ratio = %v, want 1 against the empty set", round, got)
		}
		m.Reset()
	}
}

// TestStatsScrapeRace is the -race pin for the concurrency carve-out:
// scraper goroutines hammer the stats snapshots and the Prometheus
// exporter while the observing goroutine runs a 200-window mixed
// observe loop (quiet, abnormal, degraded-partial — the slow health
// dispatch included).
func TestStatsScrapeRace(t *testing.T) {
	t.Parallel()

	const n = 32
	reg := metrics.NewRegistry()
	m, err := NewMonitor(n, 1, WithRadius(0.03), WithTau(3), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sink int64
			for {
				select {
				case <-done:
					return
				default:
				}
				hs := m.HealthStats()
				sink += int64(hs.Live) + hs.HeldTicks
				ds := m.DirStats()
				sink += ds.Windows
				st, err := m.DeviceHealth(w)
				if err != nil {
					t.Error(err)
					return
				}
				sink += int64(st)
				sink += int64(m.Time())
				var b strings.Builder
				if err := reg.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0, 1: // quiet full snapshot
			if _, err := m.Observe(fleetSnapshot(n, 0.95, nil)); err != nil {
				t.Fatal(err)
			}
		case 2: // abnormal window
			if _, err := m.Observe(fleetSnapshot(n, 0.95, map[int]float64{
				0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5,
			})); err != nil {
				t.Fatal(err)
			}
		case 3: // degraded partial window: rotating silent device
			snap := fleetSnapshot(n, 0.95, nil)
			snap[i%n] = nil
			snap[(i+5)%n] = []float64{math.NaN()}
			if _, err := m.ObservePartial(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()

	if got := reg.Counter("anomalia_ticks_total", "").Value(); got != 200 {
		t.Fatalf("ticks_total = %d, want 200", got)
	}
}

// TestMetricsDocSync pins every family an instrumented Monitor
// registers against the package documentation's Observability section
// — a metric cannot ship unnamed in doc.go.
func TestMetricsDocSync(t *testing.T) {
	t.Parallel()

	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "# Observability")
	if !found {
		t.Fatal("doc.go has no Observability section")
	}
	reg := metrics.NewRegistry()
	if _, err := NewMonitor(2, 1, WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	names := reg.FamilyNames()
	if len(names) == 0 {
		t.Fatal("instrumented monitor registered no families")
	}
	for _, name := range names {
		if !strings.Contains(section, name) {
			t.Errorf("doc.go Observability section omits %s", name)
		}
	}
}

func TestChurnRatio(t *testing.T) {
	t.Parallel()

	cases := []struct {
		prev, cur []int
		want      float64
	}{
		{nil, []int{1, 2}, 1},
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1, 2}, []int{3, 4}, 1},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5}, // Δ={1,4}, ∪={1,2,3,4}
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := churnRatio(c.prev, c.cur); got != c.want {
			t.Errorf("churnRatio(%v, %v) = %v, want %v", c.prev, c.cur, got, c.want)
		}
	}
}
