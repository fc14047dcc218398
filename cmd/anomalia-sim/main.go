// Command anomalia-sim runs the Section VII-A Monte-Carlo workload and
// reports, per observation window and in aggregate, how the local
// characterizer decomposes the abnormal set and how the verdicts compare
// with the generator's ground truth.
//
// Usage:
//
//	anomalia-sim [-n 1000] [-d 2] [-r 0.03] [-tau 3] [-a 20] [-g 0.3]
//	             [-steps 10] [-seed 1] [-exact] [-r3] [-concomitant]
//	             [-maxshift 0.06] [-v]
//	anomalia-sim -n 1000 -d 2 -steps 10 -emit csv|bin [-out snaps.bin]
//	             [-drop 0.01] [-corrupt 0.01] [-faultseed 1]
//	             [-outages 0:48:30:45[,from:to:start:end...]] [-truncate 64]
//	anomalia-sim -soak 200 [-slo p99=5ms[,p50=1ms,p999=20ms]]
//
// With -emit, the simulator skips characterization and instead streams
// the generated QoS snapshots in anomalia-gateway's input format — one
// frame per discrete time, device-major, steps+1 frames (the first
// window's previous state, then every window's current state; windows
// chain, so nothing repeats). -emit csv writes full-precision CSV rows
// and -emit bin the snapio binary stream, so piping either into the
// gateway reproduces the same verdicts. -out redirects the stream to a
// file (default: standard output).
//
// The emitted stream can be degraded on the way out through the same
// seeded fault injector the degraded-mode soak tests use
// (internal/netsim.Injector), producing fixtures for the gateway's
// tolerant ingestion: -drop is the per-device-frame probability a
// report is lost (its CSV cells are emitted empty; its binary values as
// NaN), -corrupt the probability a delivered report carries a
// non-finite value, and -outages schedules burst losses over a device
// range and frame range (from:to:start:end, comma-separated, both
// half-open). The injection is deterministic for a fixed -faultseed.
// -truncate cuts that many trailing bytes off the -out file after the
// stream is written, damaging the last frame's framing — the
// unrecoverable shape (a length-prefixed stream cannot resync) that
// must kill the gateway with a positioned error even in tolerant mode.
//
// With -soak, the simulator is a latency harness instead: it
// pre-generates N windows of snapshots, drives them through a full
// Monitor instrumented with a metrics registry (the anomalia package's
// WithMetrics option), and emits a one-line JSON report {"soak": ...}
// with exact p50/p99/p999/max per-Observe tick latency in seconds, the
// abnormal-window count, and the run's alloc drift (mallocs per window
// and net heap growth) — the generator runs before the measured loop,
// so the numbers describe the monitor alone. -slo turns the report
// into a gate: comma-separated quantile=duration clauses (p50, p99,
// p999), and any quantile over its bound exits non-zero after the
// report is written. CI runs a short gated soak.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"anomalia/internal/core"
	"anomalia/internal/netsim"
	"anomalia/internal/scenario"
	"anomalia/internal/snapio"
	"anomalia/internal/space"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "anomalia-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anomalia-sim", flag.ContinueOnError)
	var (
		n           = fs.Int("n", 1000, "number of monitored devices")
		d           = fs.Int("d", 2, "number of services (QoS dimensions)")
		r           = fs.Float64("r", 0.03, "consistency impact radius")
		tau         = fs.Int("tau", 3, "density threshold")
		a           = fs.Int("a", 20, "errors per observation window")
		g           = fs.Float64("g", 0.3, "probability an error is isolated")
		steps       = fs.Int("steps", 10, "observation windows to simulate")
		seed        = fs.Int64("seed", 1, "random seed")
		exact       = fs.Bool("exact", true, "run the full NSC (Theorem 7/Corollary 8)")
		r3          = fs.Bool("r3", true, "enforce restriction R3 on isolated errors")
		concomitant = fs.Bool("concomitant", true, "apply errors sequentially between snapshots")
		maxShift    = fs.Float64("maxshift", 0.06, "bound on per-error displacement (0: uniform targets)")
		verbose     = fs.Bool("v", false, "print per-window detail")
		emit        = fs.String("emit", "", "emit generated snapshots as gateway input (csv or bin) instead of characterizing")
		outPath     = fs.String("out", "", "write the -emit stream to this file (default: stdout)")
		drop        = fs.Float64("drop", 0, "with -emit: per device-frame probability the report is dropped")
		corrupt     = fs.Float64("corrupt", 0, "with -emit: per device-frame probability the report carries a non-finite value")
		faultSeed   = fs.Int64("faultseed", 1, "with -emit: seed for the fault injector")
		outages     = fs.String("outages", "", "with -emit: burst outages as from:to:start:end device/frame ranges, comma-separated")
		truncate    = fs.Int("truncate", 0, "with -emit -out: cut this many trailing bytes off the emitted file (garbles the final frame)")
		soak        = fs.Int("soak", 0, "run this many windows through an instrumented Monitor and emit a JSON latency report")
		slo         = fs.String("slo", "", "with -soak: comma-separated latency gates (p50=DUR, p99=DUR, p999=DUR); a breach exits non-zero")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *emit == "" && (*drop > 0 || *corrupt > 0 || *outages != "" || *truncate > 0) {
		return errors.New("-drop/-corrupt/-outages/-truncate degrade an emitted stream and require -emit")
	}
	if *slo != "" && *soak <= 0 {
		return errors.New("-slo gates a latency soak and requires -soak")
	}
	if *soak > 0 && *emit != "" {
		return errors.New("-soak and -emit are mutually exclusive modes")
	}
	if *truncate > 0 && *outPath == "" {
		return errors.New("-truncate rewrites the emitted file and requires -out")
	}
	var inj *netsim.Injector
	if *drop > 0 || *corrupt > 0 || *outages != "" {
		cfg := netsim.InjectorConfig{Seed: *faultSeed, DropProb: *drop, CorruptProb: *corrupt}
		for _, spec := range strings.Split(*outages, ",") {
			if spec == "" {
				continue
			}
			var o netsim.Outage
			if _, err := fmt.Sscanf(spec, "%d:%d:%d:%d", &o.From, &o.To, &o.Start, &o.End); err != nil {
				return fmt.Errorf("-outages %q: want from:to:start:end: %w", spec, err)
			}
			cfg.Outages = append(cfg.Outages, o)
		}
		var err error
		if inj, err = netsim.NewInjector(cfg); err != nil {
			return err
		}
	}

	gen, err := scenario.New(scenario.Config{
		N: *n, D: *d, R: *r, Tau: *tau, A: *a, G: *g,
		EnforceR3: *r3, Concomitant: *concomitant, MaxShift: *maxShift,
		Seed: *seed,
	})
	if err != nil {
		return err
	}

	if *soak > 0 {
		return runSoak(gen, soakConfig{
			windows: *soak, n: *n, d: *d, r: *r, tau: *tau, slo: *slo,
		}, out)
	}

	if *emit != "" {
		if *outPath == "" {
			return emitFrames(gen, *steps, *d, *emit, inj, out)
		}
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := emitFrames(gen, *steps, *d, *emit, inj, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if *truncate > 0 {
			fi, err := os.Stat(*outPath)
			if err != nil {
				return err
			}
			if int64(*truncate) >= fi.Size() {
				return fmt.Errorf("-truncate %d would erase the whole %d-byte stream", *truncate, fi.Size())
			}
			return os.Truncate(*outPath, fi.Size()-int64(*truncate))
		}
		return nil
	}

	var totalAb, totalI, totalM, totalU, totalMissed, budgetFailures int
	for k := 1; k <= *steps; k++ {
		step, err := gen.Step()
		if err != nil {
			return fmt.Errorf("window %d: %w", k, err)
		}
		if len(step.Abnormal) == 0 {
			continue
		}
		char, err := core.New(step.Pair, step.Abnormal, core.Config{
			R: *r, Tau: *tau, Exact: *exact,
		})
		if err != nil {
			return fmt.Errorf("window %d: %w", k, err)
		}
		var nI, nM, nU, missed int
		for _, j := range step.Abnormal {
			res, err := char.Characterize(j)
			if err != nil {
				if errors.Is(err, core.ErrBudget) {
					budgetFailures++
					nU++
					continue
				}
				return fmt.Errorf("window %d device %d: %w", k, j, err)
			}
			switch res.Class {
			case core.ClassIsolated:
				nI++
			case core.ClassMassive:
				nM++
			default:
				nU++
			}
			if iso, ok := step.TruthIsolated(j); ok && iso && res.Class == core.ClassMassive {
				missed++
			}
		}
		totalAb += len(step.Abnormal)
		totalI += nI
		totalM += nM
		totalU += nU
		totalMissed += missed
		if *verbose {
			fmt.Fprintf(out, "window %3d: |A_k|=%4d  isolated=%4d  massive=%4d  unresolved=%4d  events=%d\n",
				k, len(step.Abnormal), nI, nM, nU, len(step.Events))
		}
	}

	if totalAb == 0 {
		fmt.Fprintln(out, "no abnormal devices were generated")
		return nil
	}
	fmt.Fprintf(out, "windows: %d  devices: %d  abnormal: %d (%.1f per window)\n",
		*steps, *n, totalAb, float64(totalAb)/float64(*steps))
	fmt.Fprintf(out, "isolated:   %6d (%5.2f%%)\n", totalI, 100*float64(totalI)/float64(totalAb))
	fmt.Fprintf(out, "massive:    %6d (%5.2f%%)\n", totalM, 100*float64(totalM)/float64(totalAb))
	fmt.Fprintf(out, "unresolved: %6d (%5.2f%%)\n", totalU, 100*float64(totalU)/float64(totalAb))
	fmt.Fprintf(out, "isolated errors classified massive: %d (%.2f%% of abnormal)\n",
		totalMissed, 100*float64(totalMissed)/float64(totalAb))
	if budgetFailures > 0 {
		fmt.Fprintf(out, "exact-search budget failures: %d\n", budgetFailures)
	}
	return nil
}

// emitFrames streams the generated trajectory as gateway input: the
// first window's previous state, then every window's current state.
// CSV cells use strconv's shortest round-trip form, so a CSV stream and
// a binary one carry bit-identical values into the gateway. A non-nil
// injector degrades each frame on the way out; a dropped device is
// emitted as empty CSV cells or NaN binary values — the wire has fixed
// geometry, so loss is in-band.
func emitFrames(gen *scenario.Generator, steps, services int, format string, inj *netsim.Injector, w io.Writer) error {
	var writeRows func(rows [][]float64) error
	var flush func() error
	switch format {
	case "csv":
		bw := bufio.NewWriterSize(w, 1<<16)
		writeRows = func(rows [][]float64) error {
			first := true
			for _, row := range rows {
				for s := 0; s < services; s++ {
					if !first {
						if err := bw.WriteByte(','); err != nil {
							return err
						}
					}
					first = false
					if row == nil {
						continue // dropped: empty cell
					}
					if _, err := bw.WriteString(strconv.FormatFloat(row[s], 'g', -1, 64)); err != nil {
						return err
					}
				}
			}
			return bw.WriteByte('\n')
		}
		flush = bw.Flush
	case "bin":
		fw := snapio.NewFrameWriter(w)
		var wire []float64
		writeRows = func(rows [][]float64) error {
			wire = wire[:0]
			for _, row := range rows {
				if row == nil {
					for s := 0; s < services; s++ {
						wire = append(wire, math.NaN())
					}
					continue
				}
				wire = append(wire, row...)
			}
			return fw.Write(wire)
		}
		flush = fw.Flush
	default:
		return fmt.Errorf("unknown -emit format %q (csv or bin)", format)
	}

	var flat []float64
	var rows [][]float64
	frame := 0
	emitState := func(st *space.State) error {
		flat = flat[:0]
		for j := 0; j < st.Len(); j++ {
			flat = append(flat, st.At(j)...)
		}
		if cap(rows) < st.Len() {
			rows = make([][]float64, st.Len())
		}
		rows = rows[:st.Len()]
		for j := range rows {
			rows[j] = flat[j*services : (j+1)*services]
		}
		out := rows
		if inj != nil {
			out, _ = inj.Apply(frame, rows)
		}
		frame++
		return writeRows(out)
	}
	for k := 1; k <= steps; k++ {
		step, err := gen.Step()
		if err != nil {
			return fmt.Errorf("window %d: %w", k, err)
		}
		if k == 1 {
			if err := emitState(step.Pair.Prev); err != nil {
				return err
			}
		}
		if err := emitState(step.Pair.Cur); err != nil {
			return err
		}
	}
	return flush()
}
