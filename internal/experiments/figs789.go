package experiments

import (
	"fmt"

	"anomalia/internal/par"
	"anomalia/internal/scenario"
)

// SweepConfig parameterizes the Figures 7/8/9 sweeps over the number of
// errors A and the isolated-error probability G.
type SweepConfig struct {
	// N, D, R, Tau mirror the generator parameters (paper: 1000, 2, 0.03,
	// 3).
	N, D int
	R    float64
	Tau  int
	// As are the error counts per window (paper: 1..60).
	As []int
	// Gs are the isolated-error probabilities (paper: 0, 0.3, 0.5, 0.7, 1).
	Gs []float64
	// Steps is the number of windows averaged per (A, G) cell.
	Steps int
	// Seed drives all cells deterministically.
	Seed int64
	// MaxShift bounds per-error displacements (see scenario.Config);
	// DefaultSweep uses the vicinity diameter 2r.
	MaxShift float64
}

// DefaultSweep returns the paper's Figure 7/8/9 parameters with a
// moderate step count. Errors are concomitant (applied sequentially
// between the two snapshots) with displacements bounded by 2r — the
// regime in which the paper's unresolved-configuration levels reproduce.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		N:        1000,
		D:        2,
		R:        0.03,
		Tau:      3,
		As:       []int{1, 10, 20, 30, 40, 50, 60},
		Gs:       []float64{0, 0.3, 0.5, 0.7, 1.0},
		Steps:    20,
		Seed:     1,
		MaxShift: 0.06, // 2r
	}
}

// sweep runs the (A, G) grid and fills a table with the chosen metric.
// Cells are independent simulations with their own seeds, so they run on
// a bounded worker pool; results are deterministic regardless of
// scheduling.
func sweep(cfg SweepConfig, title string, enforceR3 bool, metric func(SimStats) float64) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"A"},
	}
	for _, g := range cfg.Gs {
		t.Header = append(t.Header, fmt.Sprintf("G=%g", g))
	}

	cells := make([][]string, len(cfg.As))
	for ai := range cells {
		cells[ai] = make([]string, len(cfg.Gs))
	}
	errs := make([]error, len(cfg.As)*len(cfg.Gs))
	par.Each(len(errs), 0, func(job int) {
		ai, gi := job/len(cfg.Gs), job%len(cfg.Gs)
		a, g := cfg.As[ai], cfg.Gs[gi]
		st, err := RunSim(SimConfig{
			Scenario: scenario.Config{
				N:           cfg.N,
				D:           cfg.D,
				R:           cfg.R,
				Tau:         cfg.Tau,
				A:           a,
				G:           g,
				EnforceR3:   enforceR3,
				Concomitant: true,
				MaxShift:    cfg.MaxShift,
				Seed:        cfg.Seed + int64(1000*a+gi),
			},
			Steps: cfg.Steps,
			Exact: true,
		})
		if err != nil {
			errs[job] = fmt.Errorf("%s at A=%d G=%v: %w", title, a, g, err)
			return
		}
		cells[ai][gi] = pct(metric(st))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for ai, a := range cfg.As {
		row := append([]string{fmt.Sprintf("%d", a)}, cells[ai]...)
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: the ratio |U_k|/|A_k| as a function of the
// number of errors A and the error mix G, with restriction R3 enforced.
func Fig7(cfg SweepConfig) (*Table, error) {
	return sweep(cfg, "Figure 7: |U_k|/|A_k| (R3 enforced)", true,
		func(st SimStats) float64 { return st.URatio })
}

// Fig8 reproduces Figure 8: the proportion of devices claiming a massive
// error although an isolated one hit them, when restriction R3 does not
// hold.
func Fig8(cfg SweepConfig) (*Table, error) {
	return sweep(cfg, "Figure 8: missed-detection rate (R3 not enforced)", false,
		func(st SimStats) float64 { return st.MissedRate })
}

// Fig9 reproduces Figure 9: the ratio |U_k|/|A_k| without restriction R3.
func Fig9(cfg SweepConfig) (*Table, error) {
	return sweep(cfg, "Figure 9: |U_k|/|A_k| (R3 not enforced)", false,
		func(st SimStats) float64 { return st.URatio })
}
