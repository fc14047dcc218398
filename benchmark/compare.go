package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// bound is a metric's regression bound from BENCHMARK.json: the share
// of the base median by which it may worsen.
type bound struct {
	share  float64
	higher bool // higher is better
}

// readBounds loads the end-to-end bounds from BENCHMARK.json in the
// repository root, read from there or from benchmark/. fail_ratio is
// not a BENCHMARK.json metric (it is 0 on a correct run) but compares
// with bound 0: any increase regresses.
func readBounds() (map[string]bound, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	out := map[string]bound{"fail_ratio": {}}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{share: m.Bound, higher: m.Better == "higher"}
	}
	return out, nil
}

type resultKey struct{ workload, metric string }

// readResults reads every file of dir as saved benchmark output and
// collects the "workload metric value unit" lines, one value per file
// in file-name order.
func readResults(dir string) (map[resultKey][]float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[resultKey][]float64{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) != 4 {
				continue
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			k := resultKey{fields[0], fields[1]}
			out[k] = append(out[k], v)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark output", dir)
	}
	return out, nil
}

// compareSets prints, for every bounded (workload, metric), each side's
// median and quartiles, the change's win share over the base across
// runs paired in file order, and a verdict. It reports whether any
// pair regressed.
func compareSets(baseDir, changeDir string, w io.Writer) (bool, error) {
	bounds, err := readBounds()
	if err != nil {
		return false, fmt.Errorf("reading bounds: %w", err)
	}
	base, err := readResults(baseDir)
	if err != nil {
		return false, err
	}
	change, err := readResults(changeDir)
	if err != nil {
		return false, err
	}
	keys := make([]resultKey, 0, len(base))
	for k := range base {
		if _, ok := bounds[k.metric]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false, errors.New("no bounded metric in the base set")
	}
	slices.SortFunc(keys, func(a, b resultKey) int {
		return strings.Compare(a.workload+" "+a.metric, b.workload+" "+b.metric)
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tspread\tchange median [q1, q3]\tspread\tgap\twins\tbound\tverdict")
	regressed := false
	for _, k := range keys {
		a, b, bd := base[k], change[k], bounds[k.metric]
		if len(b) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t\tmissing\n", k.workload, k.metric)
			regressed = true
			continue
		}
		qa, qb := quartiles(a), quartiles(b)
		won, pairs := wins(a, b, bd.higher)
		v := verdict(a, b, bd)
		regressed = regressed || v == "regressed"
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%s\t%.4g [%.4g, %.4g]\t%s\t%s\t%d/%d\t%g\t%s\n",
			k.workload, k.metric, qa[1], qa[0], qa[2], pct(spread(qa)), qb[1], qb[0], qb[2], pct(spread(qb)),
			pct(worsening(qa[1], qb[1], bd.higher)), won, pairs, bd.share, v)
	}
	return regressed, tw.Flush()
}

// verdict classifies a change against its base:
//   - improved: the change wins at least nine tenths of the pairs and
//     its median beats the base's by more than the base's IQR;
//   - unresolved: a side's spread (IQR over median) exceeds the bound,
//     unless every change run beats every base run;
//   - regressed: the median worsens by more than the bound;
//   - no worse: otherwise.
func verdict(a, b []float64, bd bound) string {
	qa, qb := quartiles(a), quartiles(b)
	won, pairs := wins(a, b, bd.higher)
	gain := qb[1] - qa[1]
	if !bd.higher {
		gain = -gain
	}
	if won*10 >= 9*pairs && gain > qa[2]-qa[0] {
		return "improved"
	}
	if bd.share == 0 {
		if gain < 0 {
			return "regressed"
		}
		return "no worse"
	}
	if max(spread(qa), spread(qb)) > bd.share && !allBetter(b, a, bd.higher) {
		return "unresolved"
	}
	if worsening(qa[1], qb[1], bd.higher) > bd.share {
		return "regressed"
	}
	return "no worse"
}

// wins counts the runs of b that beat the run of a paired with them
// (same position), ties counting for neither side.
func wins(a, b []float64, higher bool) (won, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i], higher) {
			won++
		}
	}
	return won, pairs
}

func better(x, y float64, higher bool) bool {
	if higher {
		return x > y
	}
	return x < y
}

func allBetter(b, a []float64, higher bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y, higher) {
				return false
			}
		}
	}
	return true
}

// worsening is how much worse the change median is than the base
// median, as a share of the base median (negative when better).
func worsening(base, change float64, higher bool) float64 {
	if base == 0 {
		switch {
		case change == base:
			return 0
		case better(base, change, higher):
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	d := (change - base) / math.Abs(base)
	if higher {
		d = -d
	}
	return d
}

// spread is the IQR as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

// quartiles returns the three quartile cut points with the method of
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// so spreads read the same as in tools built on it.
func quartiles(values []float64) [3]float64 {
	x := slices.Clone(values)
	slices.Sort(x)
	ld := len(x)
	if ld == 1 {
		return [3]float64{x[0], x[0], x[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q
}
