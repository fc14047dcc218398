package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"anomalia"
)

// setupRuns is how many times a measured run sets the system up;
// setup_s is their median.
const setupRuns = 3

// traceTicks caps the timed ticks the traced pass replays.
const traceTicks = 100

// limitFactor sets the timed loop's safety stop at this many times
// --seconds. A workload's fixed tick count takes about --seconds on the
// reference machine; the stop only cuts a run several times slower, so
// that it still exits in time.
const limitFactor = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run returns the process exit code: 0 when every check passed, 1 when
// a correctness check failed (the result is still printed), 2 when the
// benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anomalia-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same frames")
	seconds := fs.Float64("seconds", 20, fmt.Sprintf("nominal measuring time per workload: each runs a fixed tick count and stops early only past %dx this", limitFactor))
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of the traced pass instead of the end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two directories of saved outputs: -compare BASE CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare BASE_DIR CHANGE_DIR")
			return 2
		}
		regressed, err := compareSets(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		todo = []workload{w}
	}

	final := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range todo {
		limit := time.Duration(limitFactor * *seconds * float64(time.Second))
		res, err := runWorkload(w, *seed, w.ticks, limit, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 2
		}
		for _, m := range append(res.metrics, res.extra...) {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		for _, m := range res.metrics {
			key := m.name
			if len(todo) > 1 {
				key = w.name + "." + m.name
			}
			final.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// metric is one named number the benchmark reports.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's run.
type result struct {
	attempted, failed int
	// metrics are the BENCHMARK.json metrics of the run's mode; extra
	// are printed beside them: the sample count and fail_ratio.
	metrics, extra []metric
	// digest hashes the Monitor's records over the timed ticks, and
	// traceDigest the traced composition's over the same ticks.
	digest, traceDigest []byte
	// health is the Monitor's health ledger at the end of the run.
	health anomalia.HealthStats
}

// runWorkload measures one workload. Untraced, it sets the system up
// setupRuns times and runs the closed loop for the given number of
// ticks. Traced, it runs the loop for at most traceTicks of them, then
// replays the same ticks through the traced composition. limit is the
// timed loop's safety stop (0: none).
func runWorkload(w workload, seed uint64, ticks int, limit time.Duration, trace bool, log io.Writer) (*result, error) {
	g := newGenerator(w, seed)
	chk := &checker{w: w, log: log}
	cfg := runConfig{ticks: ticks, limit: limit, setups: setupRuns}
	if trace {
		cfg = runConfig{ticks: min(ticks, traceTicks), limit: limit, setups: 1, digests: true}
	}
	m, err := measure(w, g, cfg, chk)
	if err != nil {
		return nil, err
	}
	if len(m.ticks) == 0 {
		return nil, errors.New("no timed tick fitted in the run")
	}
	if len(m.ticks) < cfg.ticks {
		fmt.Fprintf(log, "%s: safety limit %v reached after %d of %d ticks\n", w.name, limit, len(m.ticks), cfg.ticks)
	}
	res := &result{digest: m.digest, health: m.health}
	if trace {
		runtime.GC() // return the Monitor's memory before the tracer builds its own
		l, digest, err := traceRun(w, g, m.digests, chk)
		if err != nil {
			return nil, err
		}
		res.metrics = perLayer(w, m, l)
		res.traceDigest = digest
		fmt.Fprintf(log, "%s: records over %d ticks: Monitor sha256 %x, traced sha256 %x\n", w.name, len(m.ticks), m.digest, digest)
	} else {
		res.metrics = endToEnd(w, m)
	}
	res.attempted, res.failed = chk.attempted, chk.failed
	res.extra = []metric{
		{"ticks", float64(len(m.ticks)), "count"},
		{"fail_ratio", float64(chk.failed) / float64(chk.attempted), "ratio"},
	}
	return res, nil
}

// endToEnd derives the user-visible metrics of a Monitor run.
func endToEnd(w workload, m *measurement) []metric {
	ticks := slices.Clone(m.ticks)
	slices.Sort(ticks)
	total := 0.0
	for _, t := range ticks {
		total += t
	}
	n := float64(len(ticks))
	return []metric{
		{"setup_s", median(m.setups), "s"},
		{"tick_p50_ms", percentile(ticks, 0.50), "ms"},
		{"tick_p90_ms", percentile(ticks, 0.90), "ms"},
		{"reports_per_s", float64(w.n) * n / (total / 1e3), "1/s"},
		{"alloc_mb_per_tick", float64(m.allocs) / n / 1e6, "MB"},
		{"live_heap_mb", float64(m.retained) / 1e6, "MB"},
	}
}

// perLayer derives the per-layer metrics of a traced pass. Times are
// self times; trace.coverage divides the self times of the layers on
// the workload's own decision path by the untraced run's time over the
// same ticks.
func perLayer(w workload, m *measurement, l *layers) []metric {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ticks, windows := float64(l.ticks), float64(max(l.windows, 1))
	untraced := 0.0
	for _, t := range m.ticks {
		untraced += t
	}
	coreSelf := l.core - l.graph - l.components - l.enumerate
	path := l.decode + l.health + l.detect + l.encode
	switch w.path {
	case centralized:
		path += l.core
	case distributed:
		path += l.distAdvance + l.distDecide
	case networked:
		path += l.dirWindow
	}
	return []metric{
		{"decode.ms_per_tick", ms(l.decode) / ticks, "ms"},
		{"health.ms_per_tick", ms(l.health) / ticks, "ms"},
		{"health.held_per_tick", float64(l.held) / ticks, "count"},
		{"health.skipped_per_tick", float64(l.skipped) / ticks, "count"},
		{"detect.ms_per_tick", ms(l.detect) / ticks, "ms"},
		{"detect.abnormal_per_tick", float64(l.abnormal) / ticks, "count"},
		{"graph.ms_per_window", ms(l.graph) / windows, "ms"},
		{"graph.vertices_per_window", float64(l.vertices) / windows, "count"},
		{"graph.dense_window_share", float64(l.denseWindows) / windows, "ratio"},
		{"components.ms_per_window", ms(l.components) / windows, "ms"},
		{"components.max_size", float64(l.maxComponent), "count"},
		{"enumerate.ms_per_window", ms(l.enumerate) / windows, "ms"},
		{"enumerate.motions_per_window", float64(l.motions) / windows, "count"},
		{"core.ms_per_window", ms(coreSelf) / windows, "ms"},
		{"core.exact_share", float64(l.exact) / float64(max(l.decisions, 1)), "ratio"},
		{"core.collections_tested_per_window", float64(l.collections) / windows, "count"},
		{"dist.advance_ms_per_window", ms(l.distAdvance) / windows, "ms"},
		{"dist.decide_ms_per_window", ms(l.distDecide) / windows, "ms"},
		{"dist.rebuild_share", float64(l.rebuilds) / windows, "ratio"},
		{"dist.view_size_per_window", float64(l.viewSize) / windows, "count"},
		{"dirnet.window_ms", ms(l.dirWindow) / windows, "ms"},
		{"dirnet.server_ms", ms(l.dirServer) / windows, "ms"},
		{"dirnet.wire_ms", ms(l.dirWindow-l.dirServer) / windows, "ms"},
		{"dirnet.bytes_per_window", float64(l.dirBytes) / windows, "bytes"},
		{"dirnet.round_trips_per_window", float64(l.dirRoundTrips) / windows, "count"},
		{"dirnet.retry_ratio", float64(l.dirRetries) / float64(max(l.dirRoundTrips, 1)), "ratio"},
		{"dirnet.degraded_share", float64(l.dirDegraded) / windows, "ratio"},
		{"encode.ms_per_window", ms(l.encode) / windows, "ms"},
		{"encode.bytes_per_window", float64(l.encodeBytes) / windows, "bytes"},
		{"gc.cycles_per_tick", float64(m.gcCycles) / float64(len(m.ticks)), "count"},
		{"gc.pause_ms_per_tick", ms(m.gcPause) / float64(len(m.ticks)), "ms"},
		{"trace.coverage", ms(path) / untraced, "ratio"},
	}
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(values []float64) float64 { return quartiles(values)[1] }
