package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// TestGeneratorDrawRules checks, over many ticks of every workload's
// fleet model, that a new event takes only idle devices, takes whole
// clusters or one gateway, and lies farther than 4r from every member
// of every event active in this or the previous window, at base and
// shifted positions alike (restriction R3).
func TestGeneratorDrawRules(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(0.05)
		t.Run(w.name, func(t *testing.T) {
			g := newGenerator(w, 7)
			owner := make([]int, w.n) // start tick+1 of the active event holding each device
			for tick := 1; tick <= 300; tick++ {
				g.Next()
				for i := range g.events {
					e := &g.events[i]
					if e.start != tick {
						continue
					}
					if e.massive {
						if e.lo%w.cluster != 0 || e.hi != min(w.n, e.lo+w.cluster) {
							t.Fatalf("tick %d: cluster event [%d,%d) is not a whole cluster", tick, e.lo, e.hi)
						}
					} else if e.hi != e.lo+1 {
						t.Fatalf("tick %d: gateway event spans [%d,%d)", tick, e.lo, e.hi)
					}
					for dev := e.lo; dev < e.hi; dev++ {
						if o := owner[dev]; o != 0 && o-1+faultTicks > tick {
							t.Fatalf("tick %d: device %d drawn while in the event of tick %d", tick, dev, o-1)
						}
						owner[dev] = tick + 1
					}
					for j := range g.events {
						if j != i {
							if d := eventDistance(g, e, &g.events[j]); d <= 4*w.r {
								t.Fatalf("tick %d: events at distance %g ≤ 4r = %g", tick, d, 4*w.r)
							}
						}
					}
				}
				checkFrame(t, g)
			}
			if g.applied[1] == 0 {
				t.Fatal("no cluster event in 300 ticks")
			}
		})
	}
}

// eventDistance is the least uniform-norm distance between a member of
// a and a member of b, each at its base or shifted position.
func eventDistance(g *generator, a, b *event) float64 {
	best := math.Inf(1)
	for i := a.lo; i < a.hi; i++ {
		for j := b.lo; j < b.hi; j++ {
			for _, sa := range [2]float64{0, 1} {
				for _, sb := range [2]float64{0, 1} {
					d := 0.0
					for k := 0; k < services; k++ {
						pi := g.base[i*services+k] + sa*a.shift[k]
						pj := g.base[j*services+k] + sb*b.shift[k]
						d = max(d, math.Abs(pi-pj))
					}
					best = min(best, d)
				}
			}
		}
	}
	return best
}

// checkFrame decodes the generator's frame and checks every device
// reads its true position, or NaN when its report is lost.
func checkFrame(t *testing.T, g *generator) {
	t.Helper()
	lost := map[int]bool{}
	for _, dev := range g.lost {
		lost[dev] = true
	}
	if n := binary.LittleEndian.Uint32(g.frame); int(n) != g.w.n*services {
		t.Fatalf("frame header %d, want %d", n, g.w.n*services)
	}
	for i := 0; i < g.w.n*services; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(g.frame[4+8*i:]))
		switch {
		case lost[i/services]:
			if !math.IsNaN(v) {
				t.Fatalf("tick %d: lost device %d reads %v", g.tick, i/services, v)
			}
		case v != g.pos[i] || v < 0 || v > 1:
			t.Fatalf("tick %d: value %d reads %v, want %v in [0,1]", g.tick, i, v, g.pos[i])
		}
	}
}

// TestGeneratorNoAllocs pins that a steady-state frame costs no heap
// allocation, so generator garbage never lands in a timed tick.
func TestGeneratorNoAllocs(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(0.05)
		t.Run(w.name, func(t *testing.T) {
			g := newGenerator(w, 3)
			for i := 0; i < 200; i++ {
				g.Next()
			}
			if a := testing.AllocsPerRun(200, g.Next); a != 0 {
				t.Fatalf("Next allocates %v times per tick", a)
			}
		})
	}
}

// TestFaultCountsFollowLambda checks the per-tick fault counts against
// the configured Poisson rates: the draw itself by mean and variance,
// and each full-scale workload by the mean number of faults scheduled
// per tick, nearly all of which the draw rules admit.
func TestFaultCountsFollowLambda(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, lambda := range []float64{0.2, 3, 20} {
		const draws = 50000
		var sum, sq float64
		for i := 0; i < draws; i++ {
			k := float64(poisson(r, lambda))
			sum += k
			sq += k * k
		}
		mean := sum / draws
		variance := sq/draws - mean*mean
		if tol := 5 * math.Sqrt(lambda/draws); math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%g): mean %g", lambda, mean)
		}
		if math.Abs(variance/lambda-1) > 0.05 {
			t.Errorf("Poisson(%g): variance %g", lambda, variance)
		}
	}
	for _, w := range workloads {
		if testing.Short() && w.n > 200_000 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			const ticks = 1000
			g := newGenerator(w, 5)
			for i := 0; i < ticks; i++ {
				g.Next()
			}
			for kind, lambda := range [2]float64{w.lambdaGW, w.lambdaDSLAM} {
				mean := float64(g.applied[kind]+g.skipped[kind]) / ticks
				if tol := 5 * math.Sqrt(lambda/ticks); math.Abs(mean-lambda) > tol {
					t.Errorf("kind %d: %g faults per tick, want %g ± %g", kind, mean, lambda, tol)
				}
				if share := float64(g.skipped[kind]) / float64(g.applied[kind]+g.skipped[kind]); share > 0.01 {
					t.Errorf("kind %d: %.1f%% of faults found no admissible devices", kind, 100*share)
				}
			}
		})
	}
}
