// Command benchgate runs the repository's benchmark gates. One table
// declares each gate: a bound on one metric of one go test benchmark,
// alone or against the same metric of a base benchmark from the same
// run, checked on the median over the run's repetitions; a ratio is
// taken within each repetition first. Each repetition is one
// `go test -run '^$' -bench ... -benchmem` invocation, whose output is
// echoed.
//
// It prints one line per gate and exits non-zero when a gate fails, a
// gated benchmark printed no line, or a BENCH_N.json snapshot of the
// frozen perf trajectory is missing. Run it from the repository root:
//
//	go run ./scripts/benchgate
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// A gate bounds one metric (unit) of one benchmark: the median v of
// its lines (op ""), the median over the run's repetitions of v / b,
// where b is the same metric of base measured in the same go test
// invocation (op "/"), or the median v minus the median b (op "-").
// It passes when that quantity is at most bound.
type gate struct {
	bench, unit, op, base string
	bound                 float64
}

// A run is count go test invocations over pkg with its own flags, its
// -bench pattern selecting the benchmarks its gates read. -count would
// run one benchmark's repetitions back to back, so a slow spell on a
// shared machine could hit every repetition of one side of a ratio.
type run struct {
	pkg   string
	flags []string
	count int
	gates []gate
}

const (
	nsOp      = "ns/op"
	bytesOp   = "B/op"
	allocsOp  = "allocs/op"
	quietTick = "BenchmarkTickIngestDetect1M"
	stormDir  = "BenchmarkDirectoryBuild/storm/m=3000"
	stormDist = "BenchmarkDistDecide/storm/m=3000"
	stormCtrl = "BenchmarkCentralDecide/storm/m=3000"
	genTick   = "BenchmarkTickIngestDetectGeneric1M"
	allAbn50k = "BenchmarkCharacterizeAllAbnormal/m=50k"
	bankStep  = "BenchmarkThresholdBankStep"
)

var table = []run{
	// The window hot path, a one-shot Characterize in fresh memory: ~447
	// allocs/op (408 while package pools lent it the memory earlier
	// windows left, 585 before the grid's offset fans were shared and
	// the Monitor stopped building a []Result, 635 before the motion
	// graph was laid out per component, 1735 when first gated, 4046
	// before that). Clique enumeration scratch drawn fresh per
	// enumeration instead of from its pool reads 750.
	{".", []string{"-benchtime=20x"}, 1, []gate{
		{bench: "BenchmarkCharacterizeWindow", unit: allocsOp, bound: 640},
	}},
	// The sparse CSR build of a 100k-vertex window allocates ~100 MB;
	// the dense rows it replaced took 1.37 GB, so a slide back toward
	// quadratic storage trips the gate. The storm window (six 500-device
	// clusters plus lone gateways) builds in fresh memory, one dense
	// block per component, in 440,840 B/op in every run (it read 336,424
	// or 441,680 while package pools lent it memory); a whole-window m×m
	// bit matrix took 1.5 MB. -short skips the set-up of the n=1M
	// window.
	{"./internal/motion", []string{"-short", "-benchtime=1x"}, 1, []gate{
		{bench: "BenchmarkNewGraph/grid/sparse/n=100000", unit: bytesOp, bound: 150e6},
		{bench: "BenchmarkNewGraph/storm/m=3000", unit: bytesOp, bound: 550e3},
	}},
	// The flat slab-allocated grid index builds a 1M-vertex window in a
	// few hundred allocations; the ceiling trips on any per-cell or
	// per-device allocation.
	{"./internal/motion", []string{"-benchtime=1x"}, 1, []gate{
		{bench: "BenchmarkNewGraph/grid/sparse/n=1000000", unit: allocsOp, bound: 10000},
	}},
	// The Monitor indexes every abnormal window in a fresh directory. A
	// storm-shaped window (six 500-device R2 clusters plus lone gateways)
	// builds in 14 allocations; the ceiling trips on any per-cell or
	// per-device allocation.
	{"./internal/dist", []string{"-benchtime=20x"}, 3, []gate{
		{bench: stormDir, unit: allocsOp, bound: 32},
	}},
	// The paper's distributed path decides the same storm window — the
	// window indexed anew, its cold block splits and every device's
	// decision on its 4r view — within 2x of the centralized
	// characterizer over the whole abnormal set (~1.4x when gated; ~30x
	// before views were decided per cell block). Both sides refill
	// memory they own, as the Monitor does: a characterizer, or a
	// directory and decide memory with decisions written into the
	// previous window's slice. The centralized window allocates ~451 KB
	// (its []Result is 388 KB of it; ~470 KB while it drew on package
	// pools), the distributed one ~66 KB in ~225 allocations, all of it
	// the Results' motions and families (~1.00 MB and ~790 while
	// DecideRange made its scratch and []Decision per call). Decide
	// memory made per call reads ~403 KB and ~484 allocations, a
	// directory made per window ~160 KB, and a []Decision made per call
	// ~529 KB. A characterizer made per window reads ~940 KB. The time
	// ratio reads 0.96-1.13.
	{"./internal/dist", []string{"-benchtime=100x"}, 3, []gate{
		{bench: stormDist, unit: nsOp, op: "/", base: stormCtrl, bound: 2},
		{bench: stormCtrl, unit: bytesOp, bound: 540e3},
		{bench: stormDist, unit: bytesOp, bound: 84e3},
		{bench: stormDist, unit: allocsOp, bound: 285},
	}},
	// The Threshold bank's Step over n=1M devices on one worker
	// allocates nothing: the kernel works in place and the Walker's
	// shard function is bound once per Walker. A dispatch closure built
	// per Step escapes through par.Do and reads 1 or 2; an allocation
	// per device or per row reads ~1M.
	{"./internal/detect", []string{"-benchtime=10x"}, 1, []gate{
		{bench: bankStep + "/strict/workers=1", unit: allocsOp, bound: 0},
		{bench: bankStep + "/partial/workers=1", unit: allocsOp, bound: 0},
		{bench: bankStep + "/lossy/workers=1", unit: allocsOp, bound: 0},
	}},
	// Quiet n=1M ticks: the in-place steady state allocates a
	// handful of times (2 allocs/op at GOMAXPROCS 2, one fan-out's
	// WaitGroup and goroutine, against a bound of 16), and the idle
	// health layer, a breaker-closed directory client and metrics
	// recording must each be free on it. The per-device bank's strict
	// tick also fans out once, grading and then stepping in the same
	// pass, and reads 2-3 (4-6 while it classified in a pass of its
	// own); a closure allocated per fan-out reads 6 to 10 and trips its
	// bound. allocs/op counts every goroutine's allocations; the median
	// of five repetitions keeps a stray one from tripping the
	// one-allocation gates. The default detectors run as the Threshold
	// bank at 0.22-0.50x the time of the same detectors run one heap
	// object at a time in the per-device bank (per-repetition readings
	// over six full runs, medians 0.30-0.44; 0.14-0.34x, medians
	// 0.18-0.24, before the strict tick graded the whole snapshot
	// before its first write), so a silent fallback to it trips the 0.6
	// ratio. The strict quiet tick is the denominator of the two partial
	// ratios, and its grading phase reads every row once more, so their
	// bounds sit between one pass and two: over five full runs the
	// partial tick reads 0.45-1.08x it per repetition (medians
	// 0.55-0.67) and the lossy one 0.58-1.04x (medians 0.76-0.82). A
	// second sharded pass over the fleet on every partial tick (a
	// scratch mutation) reads medians 0.91-1.01 and 1.05-1.16 over three
	// full runs and trips both; it passed the 1.5 and 1.8 these gates
	// had before.
	{".", []string{"-benchtime=3x"}, 5, []gate{
		{bench: quietTick, unit: allocsOp, bound: 16},
		{bench: genTick, unit: allocsOp, bound: 6},
		{bench: quietTick, unit: nsOp, op: "/", base: genTick, bound: 0.6},
		{bench: "BenchmarkTickObservePartial1M", unit: allocsOp, bound: 16},
		{bench: "BenchmarkTickObservePartial1M", unit: nsOp, op: "/", base: quietTick, bound: 0.8},
		{bench: "BenchmarkTickObservePartialLossy1M", unit: nsOp, op: "/", base: quietTick, bound: 0.95},
		{bench: "BenchmarkTickObserveNetworked1M", unit: allocsOp, op: "-", base: quietTick, bound: 1},
		{bench: "BenchmarkTickObserveMetrics1M", unit: allocsOp, op: "-", base: quietTick, bound: 1},
	}},
	// A Monitor retains one n×d position slab (16 B/device at d=2) and
	// its health tracker's 6 B/device once a partial tick has built it:
	// 22.0 B/device at n=1M, the same in every repetition. A second n×d
	// state brought back reads ~38; the Monitor read 41.1 while it kept
	// one, with a per-row clean mask, a trained byte per device after
	// every device was trained and flag buffers sized to an eighth of
	// each shard. One repetition is one Monitor: -benchtime=1x.
	{".", []string{"-benchtime=1x"}, 3, []gate{
		{bench: "BenchmarkMonitorFootprint", unit: "B/device", bound: 24},
	}},
	// The n=1M mass-event tick stays within 2x of characterizing its
	// window alone. -benchtime=1x: go test forces no GC between
	// iterations, and mid-loop GC state inflates a multi-iteration time
	// of these GC-heavy ticks by up to 10x, so each repetition times one.
	{".", []string{"-benchtime=1x"}, 3, []gate{
		{bench: "BenchmarkTickObserve1M/sharded", unit: nsOp, op: "/", base: "BenchmarkTickBare1M", bound: 2},
	}},
	// A networked window costs memory in its m abnormal rows, not in
	// the population n: at the same m, the n=100k wire window allocates
	// ~1.0x the n=10k one. A shard server that sizes its states by n
	// allocates ~3x here and trips the bound. Every side decides in
	// memory it owns — each shard connection its session, the client
	// its decode slab, the in-process side its decide memory and
	// decisions — so the wire window allocates ~1.5x the in-process one:
	// the codec's bytes and the decoded Results. Decisions that each
	// carry their family's motions inline took ~4.2x the in-process
	// DecideAll of that time. The n=100k/n=10k ratio read 0.986-1.086
	// while the bytes depended on what package pools held.
	{"./internal/dirnet", []string{"-benchtime=20x"}, 3, []gate{
		{bench: "BenchmarkDecideWindow/n=100k/wire", unit: bytesOp, op: "/", base: "BenchmarkDecideWindow/n=10k/wire", bound: 1.25},
		{bench: "BenchmarkDecideWindow/n=10k/wire", unit: bytesOp, op: "/", base: "BenchmarkDecideWindow/n=10k/inproc", bound: 2},
	}},
	// The component-local characterizer decides the adversarial m=50k
	// all-abnormal window far inside these ceilings; the full-universe
	// path it replaced took ~6.2 s and ~696k allocs. It allocates ~8,600
	// times with pooled clique enumeration scratch and ~20,500 with
	// scratch drawn fresh per enumeration. 1x for the same GC reason as
	// the mass-event tick.
	{"./internal/core", []string{"-benchtime=1x"}, 3, []gate{
		{bench: allAbn50k, unit: nsOp, bound: 2e9},
		{bench: allAbn50k, unit: allocsOp, bound: 17000},
	}},
}

func main() {
	var out bytes.Buffer
	for _, r := range table {
		args := slices.Concat([]string{"test", "-run", "^$", "-bench", r.pattern(), "-benchmem", "-timeout", "30m"}, r.flags, []string{r.pkg})
		for range r.count {
			fmt.Println("$ go", strings.Join(args, " "))
			cmd := exec.Command("go", args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "benchgate: go test:", err)
				os.Exit(1)
			}
		}
	}
	failed := check(os.Stdout, parse(out.String()), table)
	if err := trajectory("."); err != nil {
		fmt.Println("FAIL", err)
		failed++
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d check(s) failed\n", failed)
		os.Exit(1)
	}
}

// pattern returns the -bench expression selecting the benchmarks r's
// gates read. go test matches each '/'-separated part of a pattern
// against one sub-benchmark level, so every level is anchored.
func (r run) pattern() string {
	var alts []string
	for _, g := range r.gates {
		for _, name := range []string{g.bench, g.base} {
			levels := strings.Split(name, "/")
			for i, l := range levels {
				levels[i] = "^" + regexp.QuoteMeta(l) + "$"
			}
			if alt := strings.Join(levels, "/"); name != "" && !slices.Contains(alts, alt) {
				alts = append(alts, alt)
			}
		}
	}
	return strings.Join(alts, "|")
}

// samples holds the values of every line, per benchmark name and unit.
type samples map[key][]float64

type key struct{ name, unit string }

// procs is the -GOMAXPROCS suffix go test appends to benchmark names.
var procs = regexp.MustCompile(`-\d+$`)

// parse reads the result lines of go test -bench output: a name, an
// iteration count, then value-unit pairs. A line may lack the -benchmem
// pairs.
func parse(out string) samples {
	s := samples{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := procs.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			k := key{name, f[i+1]}
			s[k] = append(s[k], v)
		}
	}
	return s
}

// median returns the median of name's unit values.
func (s samples) median(name, unit string) (float64, error) {
	v := s[key{name, unit}]
	if len(v) == 0 {
		return 0, fmt.Errorf("no %s line for %s", unit, name)
	}
	return medianOf(v), nil
}

// medianOf returns the median of a non-empty v.
func medianOf(v []float64) float64 {
	v = slices.Sorted(slices.Values(v))
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// value returns the quantity g compares with its bound.
func (g gate) value(s samples) (float64, error) {
	v, err := s.median(g.bench, g.unit)
	if err != nil || g.op == "" {
		return v, err
	}
	b, err := s.median(g.base, g.unit)
	if err != nil || g.op == "-" {
		return v - b, err
	}
	return s.pairedRatio(g.bench, g.base, g.unit)
}

// pairedRatio returns the median of name's unit values over base's,
// paired by repetition: both benchmarks run in each go test invocation
// of a run, once each, so their i-th lines were measured side by side,
// and a slow spell that hits one repetition hits both of its sides.
func (s samples) pairedRatio(name, base, unit string) (float64, error) {
	v, b := s[key{name, unit}], s[key{base, unit}]
	if len(v) != len(b) {
		return 0, fmt.Errorf("%d %s lines for %s but %d for %s", len(v), unit, name, len(b), base)
	}
	r := make([]float64, len(v))
	for i := range v {
		r[i] = v[i] / b[i]
	}
	return medianOf(r), nil
}

func (g gate) String() string {
	if g.op == "" {
		return g.bench + " " + g.unit
	}
	return g.bench + " " + g.op + " " + g.base + " " + g.unit
}

// check evaluates every gate of runs against s, writes one line per
// gate to w, and returns how many failed or could not be read.
func check(w io.Writer, s samples, runs []run) int {
	failed := 0
	for _, r := range runs {
		for _, g := range r.gates {
			v, err := g.value(s)
			switch {
			case err != nil:
				fmt.Fprintf(w, "FAIL %s: %v\n", g, err)
			case v <= g.bound:
				fmt.Fprintf(w, "OK   %s = %.6g <= %.6g\n", g, v, g.bound)
				continue
			default:
				fmt.Fprintf(w, "FAIL %s = %.6g > %.6g\n", g, v, g.bound)
			}
			failed++
		}
	}
	return failed
}

// trajectory reports the first snapshot of the frozen perf trajectory,
// BENCH_2.json through BENCH_10.json, missing from dir.
func trajectory(dir string) error {
	for n := 2; n <= 10; n++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))); err != nil {
			return fmt.Errorf("perf trajectory: %w", err)
		}
	}
	return nil
}
