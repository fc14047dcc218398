package core

import (
	"testing"

	"anomalia/internal/motion"
)

// BenchmarkCharacterizeMassEvent measures the decision layer on a
// storm-like window: a 200k-device fleet with six 500-device R2 mass
// events and 20 lone gateway faults, in exact mode. Each mass event is
// one family, so its 500 members share one J/L split and one Theorem 6
// verdict. The motion graph is built once outside the timer (its cost
// is covered by BenchmarkNewGraph); each iteration runs a fresh
// characterizer over it.
func BenchmarkCharacterizeMassEvent(b *testing.B) {
	const (
		n       = 200_000
		r       = 0.002
		cluster = 500
	)
	starts := make([]int, 6)
	for i := range starts {
		starts[i] = i * 30_000
	}
	lone := make([]int, 20)
	for i := range lone {
		lone[i] = 190_000 + 500*i
	}
	pair, ids := massClusterWindow(b, 200, n, r, starts, cluster, lone)
	cfg := Config{R: r, Tau: 3, Exact: true}
	g := motion.NewGraph(pair, ids, cfg.R)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newCharacterizer(pair, ids, cfg, g)
		if _, err := c.CharacterizeAll(); err != nil {
			b.Fatal(err)
		}
	}
}
