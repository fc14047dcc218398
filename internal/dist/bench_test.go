package dist

import (
	"math"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/motion"
	"anomalia/internal/scenario"
	"anomalia/internal/sets"
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
// into the sharded directory.
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
}

// BenchmarkDistDecide measures the distributed hot path: every abnormal
// device of a window deciding on its fetched 4r view (batched, warm
// block cache after the first iteration — the steady serving state).
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
}

// advanceBenchCase builds one synthetic churn-sweep window pair at the
// given movement model. Devices are all abnormal; the radius is
// dimensioned so cells hold ~12 devices at every scale, keeping the
// per-cell work comparable across n.
//
// "clustered" is the paper's workload (restriction R2: an error
// displaces a group of devices confined to an r-ball): devices live in
// 200-strong clusters and churn moves whole clusters to new locations,
// so the churned cells stay compact however many devices move — this is
// the regime the incremental directory is built for. "uniform" scatters
// both the devices and the churn independently — the worst case for the
// delta path, every moved device churning two unrelated cells.
func advanceBenchCase(b *testing.B, n int, churn float64, clustered bool) (pairA, pairB *motion.Pair, ids, moved []int, r float64) {
	b.Helper()
	res := int(math.Sqrt(float64(n) / 12))
	r = 1 / (2 * float64(res))
	rng := stats.NewRNG(int64(n) + int64(churn*1e6))
	sa, err := space.NewState(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	ids = make([]int, n)
	for j := range ids {
		ids[j] = j
	}
	if clustered {
		const clusterSize = 200
		place := func(st *space.State, lo, hi int) {
			cx, cy := rng.Float64(), rng.Float64()
			for j := lo; j < hi; j++ {
				pt := space.Point{
					cx + (rng.Float64()-0.5)*2*r,
					cy + (rng.Float64()-0.5)*2*r,
				}
				if err := st.Set(j, pt); err != nil {
					b.Fatal(err)
				}
			}
		}
		for lo := 0; lo < n; lo += clusterSize {
			place(sa, lo, min(lo+clusterSize, n))
		}
		sb := sa.Clone()
		// Move exactly churn*n devices as whole-cluster events (the last
		// event may displace a partial cluster so small churn fractions
		// stay exact), drawing clusters without replacement.
		budget := int(churn * float64(n))
		clusters := rng.Perm(n / clusterSize)
		for _, c := range clusters {
			if budget <= 0 {
				break
			}
			lo := c * clusterSize
			hi := min(lo+min(clusterSize, budget), n)
			place(sb, lo, hi)
			for j := lo; j < hi; j++ {
				moved = append(moved, j)
			}
			budget -= hi - lo
		}
		moved = sets.Canon(moved)
		pairA, err = motion.NewPair(sa, sa)
		if err != nil {
			b.Fatal(err)
		}
		pairB, err = motion.NewPair(sb, sb)
		if err != nil {
			b.Fatal(err)
		}
		return pairA, pairB, ids, moved, r
	}
	sa.Uniform(rng.Float64)
	sb := sa.Clone()
	for k := 0; k < int(churn*float64(n)); k++ {
		j := rng.Intn(n)
		if err := sb.Set(j, space.Point{rng.Float64(), rng.Float64()}); err != nil {
			b.Fatal(err)
		}
		moved = append(moved, j)
	}
	moved = sets.Canon(moved)
	pairA, err = motion.NewPair(sa, sa)
	if err != nil {
		b.Fatal(err)
	}
	pairB, err = motion.NewPair(sb, sb)
	if err != nil {
		b.Fatal(err)
	}
	return pairA, pairB, ids, moved, r
}

var churnSweep = []struct {
	name string
	n    int
	frac float64
}{
	{"n=10k", 10000, 0},
	{"n=100k", 100000, 0},
	{"n=1M", 1000000, 0},
}

var churnFracs = []struct {
	name string
	frac float64
}{
	{"churn=0.1%", 0.001},
	{"churn=1%", 0.01},
	{"churn=10%", 0.1},
}

// BenchmarkDirectoryAdvance measures the incremental cross-window path:
// one Advance per iteration, alternating between the two window states
// so every iteration patches the same churn fraction. Compare against
// BenchmarkDirectoryRebuild at the same n for the incremental-vs-rebuild
// speedup scripts/benchgate gates at n=1M; BenchmarkDirectoryAdvanceFull
// is the same advance without the delta feed (every id's cell rechecked).
func BenchmarkDirectoryAdvance(b *testing.B) {
	for _, mode := range []string{"clustered", "uniform"} {
		for _, sc := range churnSweep {
			for _, cf := range churnFracs {
				b.Run(mode+"/"+sc.name+"/"+cf.name, func(b *testing.B) {
					pairA, pairB, ids, moved, r := advanceBenchCase(b, sc.n, cf.frac, mode == "clustered")
					dir, err := NewDirectory(pairA, ids, r)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pair := pairB
						if i%2 == 1 {
							pair = pairA
						}
						st, err := dir.Advance(pair, ids, moved)
						if err != nil {
							b.Fatal(err)
						}
						if st.Rebuilt {
							b.Fatalf("churn %s unexpectedly rebuilt", cf.name)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDirectoryRebuild is the from-scratch baseline the advance
// path competes with: one full NewDirectory per iteration at the same
// scales, geometry and placement models.
func BenchmarkDirectoryRebuild(b *testing.B) {
	for _, mode := range []string{"clustered", "uniform"} {
		for _, sc := range churnSweep {
			b.Run(mode+"/"+sc.name, func(b *testing.B) {
				pairA, _, ids, _, r := advanceBenchCase(b, sc.n, 0.01, mode == "clustered")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := NewDirectory(pairA, ids, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDirectoryAdvanceFull is the conservative advance — no delta
// feed, every indexed id's cell rechecked from its position (the
// in-process Monitor's path). Still sort-free, so it beats the rebuild,
// but the per-id recheck keeps it linear in n however small the churn.
func BenchmarkDirectoryAdvanceFull(b *testing.B) {
	for _, sc := range churnSweep {
		b.Run(sc.name+"/churn=1%", func(b *testing.B) {
			pairA, pairB, ids, _, r := advanceBenchCase(b, sc.n, 0.01, true)
			dir, err := NewDirectory(pairA, ids, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair := pairB
				if i%2 == 1 {
					pair = pairA
				}
				st, err := dir.Advance(pair, ids, nil)
				if err != nil {
					b.Fatal(err)
				}
				if st.Rebuilt {
					b.Fatal("1% churn unexpectedly rebuilt")
				}
			}
		})
	}
}
