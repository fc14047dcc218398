package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
//	crowded    — nine groups on a 3×3 grid, each device within 1.5r
//	             of its group's centre on each axis at both times, so
//	             every group is a component of overlapping cliques
//	             (needs r < 0.06)
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
	case "crowded":
		for i := 0; i < n; i++ {
			cx, cy := 0.2+0.3*float64(i%3), 0.2+0.3*float64(i/3%3)
			off := func() float64 { return (rng.Float64() - 0.5) * 3 * r }
			set(prev, i, cx+off(), cy+off())
			set(cur, i, cx+off(), cy+off())
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

// runComponents checks the Components relation on one window: deciding
// each connected component of the motion graph as a window of its own
// (New over the component's ids) must give every member byte-identical
// verdicts to the whole window — class, rule, dense motions, J, L and
// Cost — or the same error. Every set a decision reads lies inside the
// device's component, so nothing outside it may show in a Result. It
// returns the whole window's verdicts counted by rule.
func runComponents(t testing.TB, label string, pair *motion.Pair, ids []int, cfg Config) map[Rule]int {
	t.Helper()
	whole, err := New(pair, ids, cfg)
	if err != nil {
		t.Fatalf("%s: whole window: %v", label, err)
	}
	g, cs := whole.graph, whole.comps
	rules := map[Rule]int{}
	for comp := 0; comp < cs.Count(); comp++ {
		members := make([]int, 0, cs.Size(comp))
		for _, v := range cs.Verts(comp) {
			members = append(members, g.IDOf(int(v)))
		}
		part, err := New(pair, members, cfg)
		if err != nil {
			t.Fatalf("%s: component of %d: %v", label, members[0], err)
		}
		for _, j := range members {
			want, wantErr := whole.Characterize(j)
			got, gotErr := part.Characterize(j)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: device %d: component error %v, whole-window error %v", label, j, gotErr, wantErr)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s: device %d diverged:\ncomponent    %+v\nwhole window %+v", label, j, got, want)
			}
			rules[want.Rule]++
		}
	}
	compared := 0
	for _, k := range rules {
		compared += k
	}
	if compared != len(whole.Abnormal()) {
		t.Fatalf("%s: components cover %d of %d devices", label, compared, len(whole.Abnormal()))
	}
	return rules
}

// sameResult is reflect.DeepEqual on Results, with the id slices
// compared directly: a mass event's members each carry its whole
// membership in Dense, J and L, which reflection walks slowly.
func sameResult(a, b Result) bool {
	if !slices.EqualFunc(a.Dense, b.Dense, slices.Equal) || !slices.Equal(a.J, b.J) || !slices.Equal(a.L, b.L) {
		return false
	}
	a.Dense, a.J, a.L = nil, nil, nil
	b.Dense, b.J, b.L = nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// TestComponentLocalParity runs the Components relation across placement
// families, abnormal-set shapes and exact-mode settings.
func TestComponentLocalParity(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(777)
	rules := map[Rule]int{}
	for _, kind := range []string{"uniform", "clustered", "boundary", "coincident", "crowded"} {
		for _, exact := range []bool{false, true} {
			n := 90 + rng.Intn(60)
			r := 0.015 + 0.02*rng.Float64()
			pair := parityPair(t, rng, kind, n, r)
			cfg := Config{R: r, Tau: 2, Exact: exact}
			label := fmt.Sprintf("%s/exact=%v", kind, exact)
			for _, ids := range [][]int{allIds(n), subsetIds(rng, n, 0.3)} {
				for rule, k := range runComponents(t, label, pair, ids, cfg) {
					rules[rule] += k
				}
			}
		}
	}
	if rules[RuleCorollary8] == 0 || rules[RuleNone] == 0 {
		t.Fatalf("no fixture left Theorem 6 undecided (verdicts by rule: %v)", rules)
	}
}

// TestComponentsRelationCSR runs the relation on a window whose largest
// component keeps CSR rows: a chain of devices, each adjacent only to
// its neighbours, longer than motion's dense-block limit (4,096), beside
// mass-event clusters and lone devices in dense blocks. With τ = 1 every
// chain device's two pairs are dense and Theorem 6 cannot decide it, so
// exact mode runs the Theorem 7 search along the whole chain.
func TestComponentsRelationCSR(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("the chain component is thousands of devices")
	}

	const (
		r     = 0.00002
		chain = 4200
	)
	rng := stats.NewRNG(5150)
	var pts [][]float64
	for i := 0; i < chain; i++ {
		pts = append(pts, []float64{0.1 + 1.5*r*float64(i), 0.5})
	}
	for c := 0; c < 4; c++ {
		for i := 0; i < 12; i++ {
			pts = append(pts, []float64{0.3 + 0.01*float64(c) + r/2*rng.Float64(), 0.3 + r/2*rng.Float64()})
		}
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, []float64{0.1 + 0.8*rng.Float64(), 0.8 + 0.1*rng.Float64()})
	}
	st, err := space.StateFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := motion.NewPair(st, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ids := allIds(len(pts))
	if g := motion.NewGraph(pair, ids, r); !g.Sparse() {
		t.Fatal("the chain component must keep CSR rows")
	}
	for _, exact := range []bool{false, true} {
		rules := runComponents(t, fmt.Sprintf("csr/exact=%v", exact), pair, ids, Config{R: r, Tau: 1, Exact: exact})
		if exact && rules[RuleCorollary8] < chain-2 {
			t.Fatalf("exact mode decided %d chain devices by Corollary 8, want %d", rules[RuleCorollary8], chain-2)
		}
	}
}

// TestComponentLocalParitySparse runs the relation on windows of thousands
// of devices: uniform with every device abnormal, and clustered with
// every device or a ~4% mass-event subset abnormal. The clustered
// windows run in cheap mode: their overlapping cliques drive the
// exponential Theorem 7 search past its node budget.
func TestComponentLocalParitySparse(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("windows of thousands of devices")
	}

	rng := stats.NewRNG(4242)
	const n, r = 4500, 0.004
	pair := parityPair(t, rng, "uniform", n, r)
	runComponents(t, "uniform/all-abnormal", pair, allIds(n), Config{R: r, Tau: 2, Exact: true})

	clustered := parityPair(t, rng, "clustered", n, r)
	cheap := Config{R: r, Tau: 2}
	runComponents(t, "clustered/all-abnormal", clustered, allIds(n), cheap)
	runComponents(t, "clustered/subset", clustered, subsetIds(rng, n, 0.04), cheap)
}

// TestComponentLocalParityDenseOversized runs the relation on an
// edge-dense mass event whose single component exceeds motion's
// dense-block limit yet keeps a dense block (its edge count makes the
// block no larger than CSR rows would be).
func TestComponentLocalParityDenseOversized(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("dense oversized component is thousands of devices")
	}

	const n = 4500 // > motion's dense-block limit (4096)
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
	for _, exact := range []bool{false, true} {
		runComponents(t, fmt.Sprintf("dense-oversized/exact=%v", exact), pair, allIds(n), Config{R: r, Tau: 2, Exact: exact})
	}
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
