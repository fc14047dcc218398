package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"anomalia"
	"anomalia/internal/metrics"
	"anomalia/internal/scenario"
	"anomalia/internal/space"
)

// soakConfig carries the -soak run parameters out of flag parsing.
type soakConfig struct {
	windows int
	n, d    int
	r       float64
	tau     int
	slo     string
}

// sloGate is one parsed -slo clause plus its outcome after the run.
type sloGate struct {
	Quantile string  `json:"quantile"`
	Limit    float64 `json:"limit_seconds"`
	Observed float64 `json:"observed_seconds"`
	OK       bool    `json:"ok"`
}

// soakReport is the one-line JSON record the soak emits; its slo array
// decides the exit code.
type soakReport struct {
	Windows          int       `json:"windows"`
	Devices          int       `json:"devices"`
	AbnormalWindows  int       `json:"abnormal_windows"`
	P50              float64   `json:"p50_seconds"`
	P99              float64   `json:"p99_seconds"`
	P999             float64   `json:"p999_seconds"`
	Max              float64   `json:"max_seconds"`
	MallocsPerWindow float64   `json:"mallocs_per_window"`
	HeapGrowthBytes  int64     `json:"heap_growth_bytes"`
	SLO              []sloGate `json:"slo,omitempty"`
}

// parseSLO parses "p99=5ms,p50=800us" into gates. Quantiles are p50,
// p99, or p999; bounds are time.ParseDuration strings.
func parseSLO(spec string) ([]sloGate, error) {
	var gates []sloGate
	for _, clause := range strings.Split(spec, ",") {
		if clause == "" {
			continue
		}
		q, lim, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("-slo clause %q: want quantile=duration", clause)
		}
		switch q {
		case "p50", "p99", "p999":
		default:
			return nil, fmt.Errorf("-slo clause %q: quantile must be p50, p99, or p999", clause)
		}
		dur, err := time.ParseDuration(lim)
		if err != nil {
			return nil, fmt.Errorf("-slo clause %q: %w", clause, err)
		}
		if dur <= 0 {
			return nil, fmt.Errorf("-slo clause %q: bound must be positive", clause)
		}
		gates = append(gates, sloGate{Quantile: q, Limit: dur.Seconds()})
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("-slo %q: no gates", spec)
	}
	return gates, nil
}

// runSoak drives cfg.windows observation windows through a Monitor
// instrumented with a metrics registry and writes the JSON latency
// report. The snapshot stream is fully generated before the measured
// loop, so the per-Observe timings and the alloc drift describe the
// monitor alone, not the Monte-Carlo generator. Returns an error — and
// exit-code failure — when any -slo gate is breached; the report is
// written first either way.
func runSoak(gen *scenario.Generator, cfg soakConfig, out io.Writer) error {
	var gates []sloGate
	if cfg.slo != "" {
		var err error
		if gates, err = parseSLO(cfg.slo); err != nil {
			return err
		}
	}

	// Pre-generate windows+1 snapshots: the first window's previous
	// state, then every window's current state (windows chain).
	frames := make([][][]float64, 0, cfg.windows+1)
	for k := 1; k <= cfg.windows; k++ {
		step, err := gen.Step()
		if err != nil {
			return fmt.Errorf("window %d: %w", k, err)
		}
		if k == 1 {
			frames = append(frames, stateRows(step.Pair.Prev))
		}
		frames = append(frames, stateRows(step.Pair.Cur))
	}

	reg := metrics.NewRegistry()
	mon, err := anomalia.NewMonitor(cfg.n, cfg.d,
		anomalia.WithRadius(cfg.r), anomalia.WithTau(cfg.tau),
		anomalia.WithMetrics(reg))
	if err != nil {
		return err
	}
	// The first snapshot only seeds the previous state — untimed.
	if _, err := mon.Observe(frames[0]); err != nil {
		return err
	}

	durations := make([]float64, 0, cfg.windows)
	abnormal := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, frame := range frames[1:] {
		start := time.Now()
		outcome, err := mon.Observe(frame)
		durations = append(durations, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		if outcome != nil {
			abnormal++
		}
	}
	runtime.ReadMemStats(&after)

	sorted := append([]float64(nil), durations...)
	sort.Float64s(sorted)
	rep := soakReport{
		Windows:          cfg.windows,
		Devices:          cfg.n,
		AbnormalWindows:  abnormal,
		P50:              quantile(sorted, 0.50),
		P99:              quantile(sorted, 0.99),
		P999:             quantile(sorted, 0.999),
		Max:              sorted[len(sorted)-1],
		MallocsPerWindow: float64(after.Mallocs-before.Mallocs) / float64(cfg.windows),
		HeapGrowthBytes:  int64(after.HeapAlloc) - int64(before.HeapAlloc),
	}
	var breaches []string
	for _, g := range gates {
		switch g.Quantile {
		case "p50":
			g.Observed = rep.P50
		case "p99":
			g.Observed = rep.P99
		case "p999":
			g.Observed = rep.P999
		}
		g.OK = g.Observed <= g.Limit
		if !g.OK {
			breaches = append(breaches, fmt.Sprintf("%s = %v > %v", g.Quantile,
				time.Duration(g.Observed*float64(time.Second)),
				time.Duration(g.Limit*float64(time.Second))))
		}
		rep.SLO = append(rep.SLO, g)
	}
	if err := json.NewEncoder(out).Encode(struct {
		Soak soakReport `json:"soak"`
	}{rep}); err != nil {
		return err
	}
	if len(breaches) > 0 {
		return fmt.Errorf("slo breach: %s", strings.Join(breaches, "; "))
	}
	return nil
}

// quantile is the nearest-rank quantile of an ascending sample set.
func quantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// stateRows copies a state into the [][]float64 snapshot shape
// Monitor.Observe ingests.
func stateRows(st *space.State) [][]float64 {
	rows := make([][]float64, st.Len())
	for j := range rows {
		rows[j] = append([]float64(nil), st.At(j)...)
	}
	return rows
}
