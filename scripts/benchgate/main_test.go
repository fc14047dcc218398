package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixture is go test output for every run of the table, recorded on a
// 2-core x86-64 box; repeated lines come from the runs' -count.
func fixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkText runs every gate of the table over go test output and
// returns the number of failures and the FAIL lines.
func checkText(out string) (int, []string) {
	var w strings.Builder
	failed := check(&w, parse(out), table)
	var fails []string
	for _, line := range strings.Split(w.String(), "\n") {
		if strings.HasPrefix(line, "FAIL") {
			fails = append(fails, line)
		}
	}
	return failed, fails
}

// rewrite returns out with the unit value of every line of benchmark
// name replaced by v.
func rewrite(out, name, unit string, v float64) string {
	lines := strings.Split(out, "\n")
	for li, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || procs.ReplaceAllString(f[0], "") != name {
			continue
		}
		for i := 3; i < len(f); i++ {
			if f[i] == unit {
				f[i-1] = strconv.FormatFloat(v, 'f', -1, 64)
			}
		}
		lines[li] = strings.Join(f, "\t")
	}
	return strings.Join(lines, "\n")
}

// without returns out minus every line of benchmark name.
func without(out, name string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 0 || procs.ReplaceAllString(f[0], "") != name {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func TestFixturePassesEveryGate(t *testing.T) {
	if failed, fails := checkText(fixture(t)); failed != 0 {
		t.Fatalf("%d gates fail on the recorded output:\n%s", failed, strings.Join(fails, "\n"))
	}
}

// TestGateBound moves each gate's benchmark value in a copy of the
// fixture: to its bound the gate passes, past its bound that gate, and
// only it, fails.
func TestGateBound(t *testing.T) {
	out := fixture(t)
	s := parse(out)
	for _, r := range table {
		for _, g := range r.gates {
			t.Run(g.String(), func(t *testing.T) {
				// at puts the gated quantity at q, to float precision.
				b, _ := s.median(g.base, g.unit)
				at := func(q float64) float64 {
					switch g.op {
					case "/":
						return q * b
					case "-":
						return b + q
					}
					return q
				}
				edge := g.bound
				if g.op == "/" {
					edge *= 1 - 1e-9
				}
				if failed, fails := checkText(rewrite(out, g.bench, g.unit, at(edge))); failed != 0 {
					t.Fatalf("at the bound: %v", fails)
				}
				failed, fails := checkText(rewrite(out, g.bench, g.unit, at(2*g.bound+1)))
				if failed != 1 || len(fails) != 1 || !strings.HasPrefix(fails[0], "FAIL "+g.String()+" = ") {
					t.Fatalf("past the bound: %d failures, want this gate alone:\n%s", failed, strings.Join(fails, "\n"))
				}
			})
		}
	}
}

// TestMissingBenchmarkFails drops every line of each gated benchmark in
// turn: each gate that reads it fails and names it.
func TestMissingBenchmarkFails(t *testing.T) {
	out := fixture(t)
	reads := map[string]int{}
	for _, r := range table {
		for _, g := range r.gates {
			reads[g.bench]++
			if g.base != "" {
				reads[g.base]++
			}
		}
	}
	for name, n := range reads {
		failed, fails := checkText(without(out, name))
		if failed != n || len(fails) != n {
			t.Errorf("without %s: %d failures, want %d", name, failed, n)
		}
		for _, line := range fails {
			if !strings.Contains(line, "line for "+name) {
				t.Errorf("without %s: %q does not name it", name, line)
			}
		}
	}
}

// TestMedianOfRepetitions: a gate reads the median of a benchmark's
// repeated lines, not the minimum, mean or maximum.
func TestMedianOfRepetitions(t *testing.T) {
	rest := without(fixture(t), allAbn50k)
	lines := func(ns ...string) string {
		out := rest
		for _, v := range ns {
			out += "BenchmarkCharacterizeAllAbnormal/m=50k-2\t1\t" + v + " ns/op\t11081600 B/op\t11232 allocs/op\n"
		}
		return out
	}
	if failed, fails := checkText(lines("1e9", "1.5e9", "5e9")); failed != 0 {
		t.Errorf("median 1.5e9 is under the 2e9 bound (the mean and maximum are over it): %v", fails)
	}
	if failed, fails := checkText(lines("1e9", "2.5e9", "3e9")); failed != 1 || !strings.HasPrefix(fails[0], "FAIL "+allAbn50k+" ns/op = 2.5e+09") {
		t.Errorf("median 2.5e9 is over the 2e9 bound (the minimum is under it): %v", fails)
	}
	for _, c := range []struct {
		v    []float64
		want float64
	}{{[]float64{30, 10, 20}, 20}, {[]float64{40, 10}, 25}, {[]float64{7}, 7}} {
		s := samples{{"B", nsOp}: c.v}
		if got, err := s.median("B", nsOp); err != nil || got != c.want {
			t.Errorf("median(%v) = %v, %v; want %v", c.v, got, err, c.want)
		}
	}
}

// TestParseLineWithoutMemory: a line without -benchmem figures, as a
// benchmark run without it prints, yields its ns/op alone.
func TestParseLineWithoutMemory(t *testing.T) {
	s := parse("BenchmarkTickBare1M-2      \t       1\t1556497818 ns/op\n")
	if !slices.Equal(s[key{"BenchmarkTickBare1M", nsOp}], []float64{1556497818}) || len(s) != 1 {
		t.Fatalf("parsed %v", s)
	}
}

func TestPatternAnchorsEveryLevel(t *testing.T) {
	r := run{gates: []gate{
		{bench: stormDir, unit: allocsOp},
		{bench: stormDir, unit: nsOp, op: "/", base: "BenchmarkDirectoryRebuild/clustered/n=1M"},
	}}
	want := `^BenchmarkDirectoryBuild$/^storm$/^m=3000$|^BenchmarkDirectoryRebuild$/^clustered$/^n=1M$`
	if got := r.pattern(); got != want {
		t.Fatalf("pattern = %s, want %s", got, want)
	}
}

func TestTrajectory(t *testing.T) {
	if err := trajectory("../.."); err != nil {
		t.Fatal(err)
	}
	if err := trajectory(t.TempDir()); err == nil || !strings.Contains(err.Error(), "BENCH_2.json") {
		t.Fatalf("empty directory: %v", err)
	}
}

// TestRatioGatesPairRepetitions: a "/" gate reads the median of the
// per-repetition ratios, each repetition's two lines measured in one
// go test invocation, not the ratio of the two medians; repetitions
// that do not pair up are an error.
func TestRatioGatesPairRepetitions(t *testing.T) {
	g := gate{bench: "BenchmarkA", unit: nsOp, op: "/", base: "BenchmarkB", bound: 1.5}
	// Ratios 1, 3 and 0.5: median 1; the medians 20 and 10 give 2.
	s := samples{{"BenchmarkA", nsOp}: {10, 30, 20}, {"BenchmarkB", nsOp}: {10, 10, 40}}
	if v, err := g.value(s); err != nil || v != 1 {
		t.Fatalf("value = %v, %v; want the median paired ratio 1", v, err)
	}
	s[key{"BenchmarkB", nsOp}] = []float64{10, 10}
	if _, err := g.value(s); err == nil || !strings.Contains(err.Error(), "3 ns/op lines for BenchmarkA but 2 for BenchmarkB") {
		t.Fatalf("unpaired repetitions: err %v", err)
	}

	// Every ratio gate's reading on the fixture, to the fixture's
	// precision. The two quiet-tick ratios of the partial ticks read
	// 1.1248 and 1.1754 as ratios of medians: the medians came from
	// different invocations.
	want := map[string]float64{
		stormDist + " / BenchmarkCentralDecide/storm/m=3000 ns/op":                   1.189943,
		quietTick + " / BenchmarkTickIngestDetectGeneric1M ns/op":                    0.396360,
		"BenchmarkTickObservePartial1M / " + quietTick + " ns/op":                    1.092066,
		"BenchmarkTickObservePartialLossy1M / " + quietTick + " ns/op":               1.235125,
		"BenchmarkTickObserve1M/sharded / BenchmarkTickBare1M ns/op":                 0.945191,
		"BenchmarkDecideWindow/n=100k/wire / BenchmarkDecideWindow/n=10k/wire B/op":  0.999120,
		"BenchmarkDecideWindow/n=10k/wire / BenchmarkDecideWindow/n=10k/inproc B/op": 0.537732,
	}
	fx := parse(fixture(t))
	for _, r := range table {
		for _, g := range r.gates {
			if g.op != "/" {
				continue
			}
			w, ok := want[g.String()]
			if !ok {
				t.Errorf("%s: no pinned reading", g)
				continue
			}
			if v, err := g.value(fx); err != nil || math.Abs(v-w) > 5e-7 {
				t.Errorf("%s = %v, %v; want %v", g, v, err, w)
			}
			delete(want, g.String())
		}
	}
	for name := range want {
		t.Errorf("pinned reading for %s, which is not a ratio gate", name)
	}
}
