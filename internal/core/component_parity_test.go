package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// parityPair builds one of the parity suite's placement families:
//
//	uniform    — both states independent uniform (the generic window)
//	clustered  — r/2-sized cliques translating consistently, mirroring
//	             the adversarial all-abnormal fixture
//	boundary   — positions snapped to the 2r grid used by the graph
//	             build's cells, exercising cell-edge adjacency
//	coincident — heavy ties: many devices share exact positions
func parityPair(t testing.TB, rng *stats.RNG, kind string, n int, r float64) *motion.Pair {
	t.Helper()
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	set := func(st *space.State, i int, x, y float64) {
		if err := st.Set(i, space.Point{x, y}); err != nil {
			t.Fatal(err)
		}
	}
	switch kind {
	case "uniform":
		prev.Uniform(func() float64 { return rng.Float64() })
		cur.Uniform(func() float64 { return rng.Float64() })
	case "clustered":
		const clusterSize = 8
		for dev := 0; dev < n; {
			cx, cy := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
			sx, sy := (rng.Float64()-0.5)*r, (rng.Float64()-0.5)*r
			for i := 0; i < clusterSize && dev < n; i, dev = i+1, dev+1 {
				ox, oy := (rng.Float64()-0.5)*r/2, (rng.Float64()-0.5)*r/2
				set(prev, dev, cx+ox, cy+oy)
				set(cur, dev, cx+ox+sx, cy+oy+sy)
			}
		}
	case "boundary":
		snap := func(v float64) float64 { return float64(int(v/(2*r))) * 2 * r }
		for i := 0; i < n; i++ {
			x, y := snap(rng.Float64()), snap(rng.Float64())
			set(prev, i, x, y)
			set(cur, i, snap(x+(rng.Float64()-0.5)*4*r), snap(y+(rng.Float64()-0.5)*4*r))
		}
	case "coincident":
		const spots = 6
		px := make([][2]float64, spots)
		for s := range px {
			px[s] = [2]float64{rng.Float64(), rng.Float64()}
		}
		for i := 0; i < n; i++ {
			a, b := px[rng.Intn(spots)], px[rng.Intn(spots)]
			set(prev, i, a[0], a[1])
			set(cur, i, b[0], b[1])
		}
	default:
		t.Fatalf("unknown placement %q", kind)
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// subsetIds draws a sorted ~fraction subset of 0..n-1 (a mass-event
// style abnormal set).
func subsetIds(rng *stats.RNG, n int, fraction float64) []int {
	var ids []int
	for i := 0; i < n; i++ {
		if rng.Float64() < fraction {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		ids = []int{0}
	}
	return ids
}

// runParity characterizes the window three ways over one shared graph —
// component-local serial, component-local parallel, and the
// whole-graph-component reference oracle (the identity decomposition
// running the identical code path with full-graph universes, i.e. the
// pre-component behaviour) — and requires bytewise-identical results.
func runParity(t *testing.T, label string, pair *motion.Pair, ids []int, cfg Config) {
	t.Helper()
	g := motion.NewGraph(pair, ids, cfg.R)

	ref := newCharacterizerComps(pair, ids, cfg, g, g.WholeGraphComponent())
	want, err := ref.CharacterizeAll()
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}

	serial := newCharacterizerComps(pair, ids, cfg, g, g.Components())
	got, err := serial.CharacterizeAll()
	if err != nil {
		t.Fatalf("%s: component-local: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: device %d diverged:\ncomponent-local %+v\nreference       %+v",
					label, want[i].Device, got[i], want[i])
			}
		}
		t.Fatalf("%s: results diverged", label)
	}

	par := newCharacterizerComps(pair, ids, cfg, g, g.Components())
	gotPar, err := par.CharacterizeAllParallel(4)
	if err != nil {
		t.Fatalf("%s: parallel: %v", label, err)
	}
	if !reflect.DeepEqual(gotPar, want) {
		t.Fatalf("%s: parallel results diverged from reference", label)
	}
}

// TestComponentLocalParity pins the tentpole's correctness contract:
// across placement families, abnormal-set shapes and exact-mode
// settings, component-local characterization must reproduce the
// full-graph-scratch reference bit for bit — verdicts, rules, Dense/J/L
// sets and cost counters alike.
func TestComponentLocalParity(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(777)
	for _, kind := range []string{"uniform", "clustered", "boundary", "coincident"} {
		for _, exact := range []bool{false, true} {
			n := 90 + rng.Intn(60)
			r := 0.015 + 0.02*rng.Float64()
			pair := parityPair(t, rng, kind, n, r)
			cfg := Config{R: r, Tau: 2, Exact: exact}
			label := fmt.Sprintf("%s/exact=%v", kind, exact)
			runParity(t, label+"/all-abnormal", pair, allIds(n), cfg)
			runParity(t, label+"/subset", pair, subsetIds(rng, n, 0.3), cfg)
		}
	}
}

// TestComponentLocalParitySparse runs the parity triangle over a window
// large enough for CSR adjacency (sparse mode) with a ~4% mass-event
// abnormal subset and with every device abnormal, so the densified
// enumeration, projection and component partitioning are all exercised
// in the representation used at scale.
func TestComponentLocalParitySparse(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("sparse-mode windows are thousands of devices")
	}

	rng := stats.NewRNG(4242)
	n := 4500 // >= motion's sparse crossover (4096)
	pair := parityPair(t, rng, "uniform", n, 0.004)
	cfg := Config{R: 0.004, Tau: 2, Exact: true}
	runParity(t, "sparse/all-abnormal", pair, allIds(n), cfg)

	// The clustered windows run in cheap mode: their overlapping cliques
	// drive the (tentpole-unchanged) exponential Theorem-7 search past
	// its node budget in reference and component-local paths alike, and
	// the dense-mode suite already covers exact-mode parity.
	clustered := parityPair(t, rng, "clustered", n, 0.004)
	cheap := Config{R: 0.004, Tau: 2}
	runParity(t, "sparse/clustered", clustered, allIds(n), cheap)
	runParity(t, "sparse/subset", clustered, subsetIds(rng, n, 0.04), cheap)
}

// TestComponentLocalParityDenseOversized pins the dense-mode oversized-
// component regression end-to-end: an edge-dense mass event whose
// density-adaptive graph keeps dense bitset rows (denseWorthwhile edge
// count above motion's sparse crossover) while its single connected
// component exceeds the component-densify threshold. Characterizing
// such a window used to panic in the component enumeration's CSR-only
// anchored fallback before the fallback was gated to sparse mode.
func TestComponentLocalParityDenseOversized(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("dense oversized component is thousands of devices")
	}

	const n = 4500 // > motion's component-densify threshold (4096)
	const r = 0.002
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One mass-event cluster: every device inside an r/2 box translating
	// by one consistent shift, so the window is a single n-device clique
	// component.
	rng := stats.NewRNG(97)
	sx, sy := (rng.Float64()-0.5)*r, (rng.Float64()-0.5)*r
	for i := 0; i < n; i++ {
		ox, oy := (rng.Float64()-0.5)*r/2, (rng.Float64()-0.5)*r/2
		if err := prev.Set(i, space.Point{0.5 + ox, 0.5 + oy}); err != nil {
			t.Fatal(err)
		}
		if err := cur.Set(i, space.Point{0.5 + ox + sx, 0.5 + oy + sy}); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	g := motion.NewGraph(pair, allIds(n), r)
	if g.Sparse() {
		t.Fatal("mass-event fixture expected a dense-mode graph")
	}
	if cs := g.Components(); cs.Count() != 1 {
		t.Fatalf("mass-event fixture split into %d components", cs.Count())
	}
	runParity(t, "dense-oversized/all-abnormal", pair, allIds(n), Config{R: r, Tau: 2})
}

// TestMixedWindowAllocFootprint is the alloc-footprint regression test
// for the scratch-retention fix: a window mixing one mass-event cluster
// with many small clusters must characterize within a byte budget that
// the full-graph-scratch implementation (whose every decision allocated
// and cleared window-sized bitsets, and whose every enumerated motion
// was widened to a window-sized bitset) exceeded several-fold.
func TestMixedWindowAllocFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over a 20k-device window")
	}

	const m = 20_000
	pair, ids := allAbnormalWindow(t, m)
	cfg := Config{R: allAbnormalR, Tau: allAbnormalTau}
	g := motion.NewGraph(pair, ids, cfg.R)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newCharacterizer(pair, ids, cfg, g)
	if _, err := c.CharacterizeAll(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	// Measured ~27 MB at this size; the pre-component implementation
	// interpolates to ~150 MB and the ceiling leaves ~2.5x headroom.
	const ceiling = 70 << 20
	if allocated > ceiling {
		t.Fatalf("characterization allocated %d MB, ceiling %d MB",
			allocated>>20, ceiling>>20)
	}
}
