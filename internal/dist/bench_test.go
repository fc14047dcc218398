package dist

import (
	"math"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/motion"
	"anomalia/internal/scenario"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// benchConfigs are the two fleet scales the perf trajectory tracks: the
// paper's operating point and 10x, with the radius shrunk per the
// Section VII-A dimensioning rule so local density stays at the paper's
// level.
var benchConfigs = []struct {
	name string
	cfg  scenario.Config
}{
	{"n=1k", scenario.Config{
		N: 1000, D: 2, R: 0.03, Tau: 3, A: 20, G: 0.3,
		Concomitant: true, MaxShift: 0.06, Seed: 42,
	}},
	{"n=10k", scenario.Config{
		N: 10000, D: 2, R: 0.01, Tau: 3, A: 100, G: 0.3,
		Concomitant: true, MaxShift: 0.02, Seed: 4242,
	}},
}

// BenchmarkDirectoryBuild measures indexing one window's abnormal set
// into the sharded directory — what the Monitor does on every abnormal
// window — on the paper's scenario windows and on a storm window.
func BenchmarkDirectoryBuild(b *testing.B) {
	for _, bc := range benchConfigs {
		b.Run(bc.name, func(b *testing.B) {
			step := genWindow(b, bc.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewDirectory(step.Pair, step.Abnormal, bc.cfg.R); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("storm/m=3000", func(b *testing.B) {
		pair, ids, r := stormWindow(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewDirectory(pair, ids, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistDecide measures the distributed hot path: every abnormal
// device of a window deciding on its fetched 4r view. Every iteration
// builds the window's blocks and decides in one DecideAll; the scenario
// cases reuse one directory, while the storm case decides as the
// Monitor does per abnormal window — its directory and decide memory
// refilled, the decisions written into the previous window's slice —
// and compares with BenchmarkCentralDecide on the same window.
func BenchmarkDistDecide(b *testing.B) {
	for _, bc := range benchConfigs {
		b.Run(bc.name, func(b *testing.B) {
			step := genWindow(b, bc.cfg)
			dir, err := NewDirectory(step.Pair, step.Abnormal, bc.cfg.R)
			if err != nil {
				b.Fatal(err)
			}
			coreCfg := core.Config{R: bc.cfg.R, Tau: bc.cfg.Tau, Exact: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecideAll(dir, coreCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("storm/m=3000", func(b *testing.B) {
		pair, ids, r := stormWindow(b)
		coreCfg := core.Config{R: r, Tau: 3, Exact: true}
		var (
			dir  Directory
			dm   Decider
			decs []Decision
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dir.Refill(pair, ids, r); err != nil {
				b.Fatal(err)
			}
			var err error
			if decs, _, err = dm.DecideRange(decs, &dir, coreCfg, 0, dir.Len()); err != nil {
				b.Fatal(err)
			}
			clear(decs)
		}
	})
}

// BenchmarkCentralDecide is the centralized twin of BenchmarkDistDecide's
// storm case: one characterizer over the whole abnormal set of the same
// window deciding every device, refilled window after window and
// cleared once the window is decided, as the Monitor's is.
func BenchmarkCentralDecide(b *testing.B) {
	b.Run("storm/m=3000", func(b *testing.B) {
		pair, ids, r := stormWindow(b)
		coreCfg := core.Config{R: r, Tau: 3, Exact: true}
		var c core.Characterizer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Refill(pair, ids, coreCfg); err != nil {
				b.Fatal(err)
			}
			if _, err := c.CharacterizeAll(); err != nil {
				b.Fatal(err)
			}
			c.Clear()
		}
	})
}

// stormWindow is the storm-200k window shape at r = 0.01: six
// 500-device R2 clusters (each within r/2 of its centre at k-1 and moved
// coherently at k) plus 40 lone gateways drifting by up to r, all of
// them abnormal. It mirrors motion's NewGraph/storm case.
func stormWindow(b *testing.B) (pair *motion.Pair, ids []int, r float64) {
	b.Helper()
	r = 0.01
	rng := stats.NewRNG(4096)
	var prev, cur [][]float64
	for c := 0; c < 6; c++ {
		// Centres alternate between a cell centre, a cell boundary and a
		// cell corner.
		cx := (4*float64(c+1) + 0.5*float64(c%2)) * 2 * r
		cy := (10 + 0.5*float64(c%3)) * 2 * r
		for i := 0; i < 500; i++ {
			p := []float64{cx + (rng.Float64()-0.5)*r, cy + (rng.Float64()-0.5)*r}
			prev = append(prev, p)
			cur = append(cur, []float64{p[0] + 0.06, p[1] + 0.09})
		}
	}
	for i := 0; i < 40; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		prev = append(prev, p)
		cur = append(cur, []float64{
			math.Min(1, math.Max(0, p[0]+(2*rng.Float64()-1)*r)),
			math.Min(1, math.Max(0, p[1]+(2*rng.Float64()-1)*r)),
		})
	}
	ps, err := space.StateFromPoints(prev)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := space.StateFromPoints(cur)
	if err != nil {
		b.Fatal(err)
	}
	if pair, err = motion.NewPair(ps, cs); err != nil {
		b.Fatal(err)
	}
	ids = make([]int, len(prev))
	for j := range ids {
		ids[j] = j
	}
	return pair, ids, r
}

// rebuildBenchCase builds one synthetic window at the given placement
// model. Devices are all abnormal; the radius is dimensioned so cells
// hold ~12 devices at every scale, keeping the per-cell work comparable
// across n. "clustered" is the paper's workload (restriction R2: an
// error displaces a group of devices confined to an r-ball): devices
// live in 200-strong clusters. "uniform" scatters them independently.
func rebuildBenchCase(b *testing.B, n int, clustered bool) (pair *motion.Pair, ids []int, r float64) {
	b.Helper()
	res := int(math.Sqrt(float64(n) / 12))
	r = 1 / (2 * float64(res))
	// The seed predates the case's churned second window; it is kept so
	// the recorded perf trajectory stays comparable.
	rng := stats.NewRNG(int64(n) + 10000)
	st, err := space.NewState(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	ids = make([]int, n)
	for j := range ids {
		ids[j] = j
	}
	if clustered {
		const clusterSize = 200
		for lo := 0; lo < n; lo += clusterSize {
			cx, cy := rng.Float64(), rng.Float64()
			for j := lo; j < min(lo+clusterSize, n); j++ {
				pt := space.Point{
					cx + (rng.Float64()-0.5)*2*r,
					cy + (rng.Float64()-0.5)*2*r,
				}
				if err := st.Set(j, pt); err != nil {
					b.Fatal(err)
				}
			}
		}
	} else {
		st.Uniform(rng.Float64)
	}
	if pair, err = motion.NewPair(st, st); err != nil {
		b.Fatal(err)
	}
	return pair, ids, r
}

// BenchmarkDirectoryRebuild measures one full NewDirectory per iteration
// over all-abnormal windows at fleet scale, under both placement models.
func BenchmarkDirectoryRebuild(b *testing.B) {
	for _, mode := range []string{"clustered", "uniform"} {
		for _, sc := range []struct {
			name string
			n    int
		}{{"n=10k", 10000}, {"n=100k", 100000}, {"n=1M", 1000000}} {
			b.Run(mode+"/"+sc.name, func(b *testing.B) {
				pair, ids, r := rebuildBenchCase(b, sc.n, mode == "clustered")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := NewDirectory(pair, ids, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
