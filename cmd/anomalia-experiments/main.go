// Command anomalia-experiments regenerates the tables and figures of the
// paper's evaluation (Section VII) plus the repository's ablations.
//
// Usage:
//
//	anomalia-experiments [-run all|fig6a|fig6b|table2|table3|fig7|fig8|fig9|
//	                           ablations|granularity|byzantine|detectors|distcost|agreement|figures]
//	                     [-steps N] [-seed S] [-csv DIR]
//
// Results print as aligned text tables; with -csv DIR each table is also
// written as a CSV file in DIR.
//
// The distcost study bills the paper's distributed deployment model: the
// window's abnormal trajectories are indexed in a sharded directory
// service (internal/dist) and every abnormal device fetches its 4r view
// and decides locally — the table reports the per-device messages,
// trajectories transferred, and view sizes at the paper's operating
// point (n=1000, G=0.3). Next to the bills sit the measured wire
// columns — frame bytes, round-trips and retries per abnormal window
// when the same windows are decided over the dirnet protocol through an
// in-process transport. The same code path serves live streams via
// anomalia-gateway -distributed (in-process) and -directory (over the
// wire).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"anomalia/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "anomalia-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("anomalia-experiments", flag.ContinueOnError)
	var (
		runWhat = fs.String("run", "all", "experiments to run (comma-separated): all, fig6a, fig6b, table2, table3, fig7, fig8, fig9, ablations, granularity, byzantine, detectors, distcost, agreement, figures")
		steps   = fs.Int("steps", 0, "override the number of simulated windows per measurement (0: defaults)")
		seed    = fs.Int64("seed", 1, "simulation seed")
		csvDir  = fs.String("csv", "", "also write each table as CSV into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*runWhat, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	emit := func(name string, tab *experiments.Table) error {
		if err := tab.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return fmt.Errorf("creating %s: %w", *csvDir, err)
			}
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				return fmt.Errorf("creating CSV for %s: %w", name, err)
			}
			defer f.Close()
			if err := tab.RenderCSV(f); err != nil {
				return fmt.Errorf("writing CSV for %s: %w", name, err)
			}
		}
		return nil
	}

	if want("figures") {
		tab, err := experiments.WorkedFigures()
		if err != nil {
			return err
		}
		if err := emit("figures", tab); err != nil {
			return err
		}
	}
	if want("fig6a") {
		tab, err := experiments.Fig6a(experiments.DefaultFig6a())
		if err != nil {
			return err
		}
		if err := emit("fig6a", tab); err != nil {
			return err
		}
	}
	if want("fig6b") {
		tab, err := experiments.Fig6b(experiments.DefaultFig6b())
		if err != nil {
			return err
		}
		if err := emit("fig6b", tab); err != nil {
			return err
		}
	}
	if want("table2") || want("table3") {
		cfg := experiments.DefaultTables()
		cfg.Scenario.Seed = *seed
		if *steps > 0 {
			cfg.Steps = *steps
		}
		if want("table2") {
			tab, _, err := experiments.Table2(cfg)
			if err != nil {
				return err
			}
			if err := emit("table2", tab); err != nil {
				return err
			}
		}
		if want("table3") {
			tab, _, err := experiments.Table3(cfg)
			if err != nil {
				return err
			}
			if err := emit("table3", tab); err != nil {
				return err
			}
		}
	}
	sweeps := []struct {
		name string
		fn   func(experiments.SweepConfig) (*experiments.Table, error)
	}{
		{"fig7", experiments.Fig7},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
	}
	for _, sw := range sweeps {
		if !want(sw.name) {
			continue
		}
		cfg := experiments.DefaultSweep()
		cfg.Seed = *seed
		if *steps > 0 {
			cfg.Steps = *steps
		}
		tab, err := sw.fn(cfg)
		if err != nil {
			return err
		}
		if err := emit(sw.name, tab); err != nil {
			return err
		}
	}
	if want("ablations") {
		cfg := experiments.DefaultAblation()
		cfg.Scenario.Seed = *seed
		if *steps > 0 {
			cfg.Steps = *steps
		}
		tab, err := experiments.AblationBucketSize(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_bucket", tab); err != nil {
			return err
		}
		tab, err = experiments.AblationExactness(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_exactness", tab); err != nil {
			return err
		}
	}
	if want("granularity") {
		cfg := experiments.DefaultGranularity()
		cfg.Seed = *seed
		if *steps > 0 {
			cfg.Bursts = *steps
		}
		tab, err := experiments.Granularity(cfg)
		if err != nil {
			return err
		}
		if err := emit("granularity", tab); err != nil {
			return err
		}
	}
	if want("byzantine") {
		cfg := experiments.DefaultByzantine()
		cfg.Scenario.Seed = *seed
		if *steps > 0 {
			cfg.Windows = *steps
		}
		tab, err := experiments.AblationByzantine(cfg)
		if err != nil {
			return err
		}
		if err := emit("byzantine", tab); err != nil {
			return err
		}
	}
	if want("detectors") {
		cfg := experiments.DefaultDetectorStudy()
		cfg.Seed = *seed
		if *steps > 0 {
			cfg.Traces = *steps
		}
		tab, err := experiments.DetectorStudy(cfg)
		if err != nil {
			return err
		}
		if err := emit("detectors", tab); err != nil {
			return err
		}
	}
	if want("distcost") {
		cfg := experiments.DefaultDistCost()
		cfg.Seed = *seed
		if *steps > 0 {
			cfg.Steps = *steps
		}
		tab, err := experiments.DistCost(cfg)
		if err != nil {
			return err
		}
		if err := emit("distcost", tab); err != nil {
			return err
		}
	}
	if want("agreement") {
		cfg := experiments.DefaultAgreement()
		cfg.Seed = *seed
		if *steps > 0 {
			cfg.Trials = *steps
		}
		tab, err := experiments.Agreement(cfg)
		if err != nil {
			return err
		}
		if err := emit("agreement", tab); err != nil {
			return err
		}
	}
	return nil
}
