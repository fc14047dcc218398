package dirnet

import (
	"fmt"
	"math"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
)

// BenchmarkDecideWindow measures one abnormal window decided over the
// wire — two pipe shards, one request per shard slice, steady state
// after the first window — next to the in-process batch
// (dist.DecideAll, the BenchmarkDistDecide path) on the same clustered
// window: ten faulty 100-device clusters, the radius dimensioned to n.
// The in-process case indexes its directory once, outside the loop, and
// each DecideAll builds the window's blocks, as each shard does for its
// slice. The decision work is the same at both n, so the wire/inproc
// gap is the wire's own cost: codec, transport and the server's compact
// m-row window and index build. None of it grows with n; a benchmark gate holds
// the n=100k/n=10k wire B/op ratio near 1.
func BenchmarkDecideWindow(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		r := 0.03 * math.Sqrt(1000/float64(n))
		cfg := core.Config{R: r, Tau: 3, Exact: true}
		pair, abnormal := clusteredWindow(b, n, 100, 10, r, int64(n))
		name := fmt.Sprintf("n=%dk", n/1000)
		b.Run(name+"/wire", func(b *testing.B) {
			addrs := []string{"s0", "s1"}
			pn := newPipeNet(addrs...)
			c, err := NewClient(Config{Addrs: addrs, Dial: pn.dial, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.DecideWindow(pair, abnormal, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/inproc", func(b *testing.B) {
			dir, err := dist.NewDirectory(pair, abnormal, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dist.DecideAll(dir, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
