package core

import (
	"fmt"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// allAbnormalR is the consistency radius of the adversarial fixtures.
// It is dimensioned so that clusters span well under 2r (every cluster
// is a clique) while distinct clusters almost never touch: component
// mass stays proportional to m, which is exactly the locality the
// component-local scratch exploits and the full-graph scratch wasted.
const allAbnormalR = 0.002

// allAbnormalTau keeps every cluster τ-dense.
const allAbnormalTau = 3

// allAbnormalClusterSize is the device count of one cluster — a
// mass-event group the size of the paper's R2 scenario events.
const allAbnormalClusterSize = 100

// allAbnormalWindow builds the adversarial worst case of the ROADMAP
// "characterizer scratch cost" item: every one of the m devices is
// abnormal at once, grouped into r/2-sized clusters that each translate
// consistently (so each cluster is a τ-dense motion that must be
// enumerated and decided). Verdict-wise the window is boring — almost
// everything is massive by Theorem 6 — but decision-wise it maximizes
// the number of decisions over the number of cached motion bitsets.
func allAbnormalWindow(tb testing.TB, m int) (*motion.Pair, []int) {
	tb.Helper()
	const d = 2
	rng := stats.NewRNG(int64(m))
	prev, err := space.NewState(m, d)
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := space.NewState(m, d)
	if err != nil {
		tb.Fatal(err)
	}
	clusters := (m + allAbnormalClusterSize - 1) / allAbnormalClusterSize
	ids := make([]int, m)
	dev := 0
	for c := 0; c < clusters && dev < m; c++ {
		// Cluster center away from the boundary; members within a box of
		// side r/2 around it, so every pair sits well inside 2r.
		cx := 0.1 + 0.8*rng.Float64()
		cy := 0.1 + 0.8*rng.Float64()
		// The whole cluster translates by one consistent shift <= r/2 per
		// axis: pairwise distances are preserved, so the cluster is a
		// maximal τ-dense motion in the window's motion graph.
		sx := (rng.Float64() - 0.5) * allAbnormalR
		sy := (rng.Float64() - 0.5) * allAbnormalR
		for i := 0; i < allAbnormalClusterSize && dev < m; i++ {
			ox := (rng.Float64() - 0.5) * allAbnormalR / 2
			oy := (rng.Float64() - 0.5) * allAbnormalR / 2
			if err := prev.Set(dev, space.Point{cx + ox, cy + oy}); err != nil {
				tb.Fatal(err)
			}
			if err := cur.Set(dev, space.Point{cx + ox + sx, cy + oy + sy}); err != nil {
				tb.Fatal(err)
			}
			ids[dev] = dev
			dev++
		}
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		tb.Fatal(err)
	}
	return pair, ids
}

// BenchmarkCharacterizeAllAbnormal measures fleet-wide characterization
// of the adversarial all-abnormal window at m ∈ {10k, 50k, 200k} — the
// curve the ROADMAP recorded as super-quadratic (10k→45ms, 50k→650ms,
// 200k→57s) under full-graph scratch bitsets. The motion graph is built
// once outside the timer (its cost is covered by BenchmarkNewGraph);
// each iteration runs a fresh characterizer over it, so the measured
// work is exactly the decision layer: motion enumeration, the
// D_k/J_k/L_k algebra and the verdicts. CI gates the m=50k point.
func BenchmarkCharacterizeAllAbnormal(b *testing.B) {
	for _, m := range []int{10_000, 50_000, 200_000} {
		if testing.Short() && m > 50_000 {
			continue
		}
		b.Run(fmt.Sprintf("m=%dk", m/1000), func(b *testing.B) {
			pair, ids := allAbnormalWindow(b, m)
			cfg := Config{R: allAbnormalR, Tau: allAbnormalTau}
			g := motion.NewGraph(pair, ids, cfg.R)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := newCharacterizer(pair, ids, cfg, g)
				if _, err := c.CharacterizeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
