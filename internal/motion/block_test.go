package motion

import (
	"fmt"
	"math"
	"testing"

	"anomalia/internal/grid"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// r2Radius is the radius of the R2-cluster fixtures: grid cells of side
// 0.02, so a cluster (a box of side r) covers a quarter of a cell's side.
const r2Radius = 0.01

// r2Fixture is one observation window built from R2 mass events:
// clusters whose members sit within r/2 of a centre at both times and
// move coherently, so each cluster is an r-consistent clique.
type r2Fixture struct {
	name string
	pair *Pair
	// probe names the two devices whose cells form the one-ulp block of
	// the ulp fixtures (-1 elsewhere), and fits whether that block's
	// union box is within 2r.
	probeA, probeB int
	fits           bool
}

// r2Window accumulates device positions at k-1 and at k.
type r2Window struct {
	prev, cur [][]float64
}

func (w *r2Window) add(p, q []float64) int {
	w.prev = append(w.prev, p)
	w.cur = append(w.cur, q)
	return len(w.prev) - 1
}

// cluster adds s devices within r/2 of centre at k-1, shifted by shift
// at k.
func (w *r2Window) cluster(rng *stats.RNG, s int, centre, shift []float64) {
	for i := 0; i < s; i++ {
		p := make([]float64, len(centre))
		q := make([]float64, len(centre))
		for k := range centre {
			p[k] = centre[k] + (rng.Float64()-0.5)*r2Radius
			q[k] = p[k] + shift[k]
		}
		w.add(p, q)
	}
}

// lone adds s single gateways at uniform positions that drift by up
// to r between the two times.
func (w *r2Window) lone(rng *stats.RNG, s int) {
	for i := 0; i < s; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		q := []float64{
			math.Min(1, math.Max(0, p[0]+(2*rng.Float64()-1)*r2Radius)),
			math.Min(1, math.Max(0, p[1]+(2*rng.Float64()-1)*r2Radius)),
		}
		w.add(p, q)
	}
}

// coincide adds copies of every step-th device, at the same positions
// at both times.
func (w *r2Window) coincide(step int) {
	n := len(w.prev)
	for j := 0; j < n; j += step {
		w.add(w.prev[j], w.cur[j])
	}
}

func (w *r2Window) pair(t testing.TB) *Pair {
	t.Helper()
	prev, err := space.StateFromPoints(w.prev)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.StateFromPoints(w.cur)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pastLim returns the smallest float64 hi with hi - lo > 2r as computed
// in floating point: the box [lo, hi] exceeds 2r by one ulp of hi.
func pastLim(lo float64) float64 {
	lim := 2 * r2Radius
	hi := lo + lim
	for hi-lo > lim {
		hi = math.Nextafter(hi, 0)
	}
	for hi-lo <= lim {
		hi = math.Nextafter(hi, 2)
	}
	return hi
}

// ulpCluster adds a 40-device cluster straddling the cell boundary at
// x = 0.5 whose two outermost devices span exactly one ulp more than 2r
// (fits=false) or exactly the largest span within 2r (fits=true) at
// time atCur (k when true, k-1 otherwise); at the other time the
// cluster is an R2 box. It returns the two outermost devices, which sit
// in different cells at k-1.
func (w *r2Window) ulpCluster(rng *stats.RNG, atCur, fits bool) (int, int) {
	const y = 0.31 // a cell centre: 15.5 cells of side 0.02
	lo := 0.5 - r2Radius
	hi := pastLim(lo)
	if fits {
		hi = math.Nextafter(hi, 0)
	}
	box := func(x float64) []float64 { return []float64{x, y} }
	jitter := func() float64 { return (rng.Float64() - 0.5) * r2Radius / 2 }
	var a, b int
	if atCur {
		// k-1: a tight box across x = 0.5; k: spread to [lo, hi].
		a = w.add(box(0.5-r2Radius/4), box(lo))
		b = w.add(box(0.5+r2Radius/4), box(hi))
		for i := 0; i < 38; i++ {
			w.add(box(0.5+jitter()), box(lo+r2Radius+jitter()))
		}
	} else {
		// k-1: spread to [lo, hi], which puts lo and hi in the cells on
		// either side of x = 0.5; k: a tight box.
		a = w.add(box(lo), box(0.7))
		b = w.add(box(hi), box(0.7+r2Radius/4))
		for i := 0; i < 38; i++ {
			w.add(box(lo+r2Radius+jitter()), box(0.7+jitter()))
		}
	}
	return a, b
}

// r2Fixtures builds the R2 windows of the build-parity suites: clusters
// inside one cell and straddling two and four cells, lone gateways and
// coincident devices around them, and the one-ulp blocks at either time
// that must fall back to per-pair tests.
func r2Fixtures(t testing.TB) []r2Fixture {
	t.Helper()
	rng := stats.NewRNG(15)
	side := 2 * r2Radius
	shift := []float64{0.07, -0.08}
	var out []r2Fixture
	layouts := []struct {
		name   string
		centre func(i int) []float64
	}{
		// Cell centres, vertical and horizontal cell boundaries, and
		// cell corners, on a lattice 5 cells apart.
		{"one-cell", func(i int) []float64 { return []float64{(5*float64(i+1) + 0.5) * side, 20.5 * side} }},
		{"two-cell", func(i int) []float64 {
			if i%2 == 0 {
				return []float64{5 * float64(i+1) * side, 20.5 * side}
			}
			return []float64{(5*float64(i+1) + 0.5) * side, 20 * side}
		}},
		{"four-cell", func(i int) []float64 { return []float64{5 * float64(i+1) * side, 20 * side} }},
	}
	for _, l := range layouts {
		var w r2Window
		for i, s := range []int{2, 40, 65, 130} {
			w.cluster(rng, s, l.centre(i), shift)
		}
		w.lone(rng, 60)
		w.coincide(17)
		out = append(out, r2Fixture{name: l.name, pair: w.pair(t), probeA: -1, probeB: -1})
	}
	for _, atCur := range []bool{true, false} {
		for _, fits := range []bool{false, true} {
			var w r2Window
			a, b := w.ulpCluster(rng, atCur, fits)
			w.cluster(rng, 50, []float64{0.2, 0.8}, shift)
			w.lone(rng, 40)
			w.coincide(9)
			when := map[bool]string{true: "k", false: "k-1"}[atCur]
			name := fmt.Sprintf("ulp-over-at-%s", when)
			if fits {
				name = fmt.Sprintf("exact-2r-at-%s", when)
			}
			out = append(out, r2Fixture{name: name, pair: w.pair(t), probeA: a, probeB: b, fits: fits})
		}
	}
	return out
}

// r2Storm builds a storm window: the given number of 500-device R2
// clusters plus lone gateways, and with coincide > 0 a copy of every
// coincide-th device.
func r2Storm(tb testing.TB, clusters, lone, coincide int) *Pair {
	tb.Helper()
	rng := stats.NewRNG(4096)
	side := 2 * r2Radius
	var w r2Window
	for i := 0; i < clusters; i++ {
		// Centres alternate between a cell centre, a cell boundary and a
		// cell corner.
		c := []float64{(4*float64(i+1) + 0.5*float64(i%2)) * side, (10 + 0.5*float64(i%3)) * side}
		w.cluster(rng, 500, c, []float64{0.06, 0.09})
	}
	w.lone(rng, lone)
	if coincide > 0 {
		w.coincide(coincide)
	}
	return w.pair(tb)
}

// r2CollectedStorm is a storm window of at least sparseMinVertices
// vertices — eight clusters, lone gateways and coincident devices —
// whose every component still gets a dense block.
func r2CollectedStorm(t testing.TB) *Pair { return r2Storm(t, 8, 150, 50) }

// sparseMinVertices is a window size above componentDenseMax: a window
// that large whose components are all dense blocks shows the
// representation is chosen per component, not per window.
const sparseMinVertices = componentDenseMax + 1

// TestBlockAcceptUlp pins the block accept at its boundary: a cell pair
// whose union box exceeds 2r by one ulp at k only, or at k-1 only, is
// refused (its pairs are tested one by one and the outermost pair is
// no edge), and a union box of exactly the largest span within 2r is
// accepted (and the outermost pair is an edge).
func TestBlockAcceptUlp(t *testing.T) {
	t.Parallel()

	for _, fx := range r2Fixtures(t) {
		if fx.probeA < 0 {
			continue
		}
		ids := allIds(fx.pair.N())
		g := new(Graph).setVertices(fx.pair, ids, r2Radius)
		idx := grid.New(fx.pair.Prev, g.ids, grid.ForRadius(r2Radius))
		cb := new(cellBlocks).init(new(flatWindow).flatten(g), new(cellLocals).resolve(idx))
		ca, cc := int(idx.CellIndexes()[fx.probeA]), int(idx.CellIndexes()[fx.probeB])
		if ca == cc {
			t.Fatalf("%s: probes share cell %d; the fixture must straddle two cells", fx.name, ca)
		}
		if got := cb.accept(ca, cc); got != fx.fits {
			t.Fatalf("%s: accept(%d, %d) = %v, want %v", fx.name, ca, cc, got, fx.fits)
		}
		if got := fx.pair.Adjacent(fx.probeA, fx.probeB, r2Radius); got != fx.fits {
			t.Fatalf("%s: Pair.Adjacent(probes) = %v, want %v", fx.name, got, fx.fits)
		}
		for _, built := range []*Graph{newGraphGrid(fx.pair, ids, r2Radius), NewGraph(fx.pair, ids, r2Radius)} {
			if got := built.Adjacent(fx.probeA, fx.probeB); got != fx.fits {
				t.Fatalf("%s: built edge between probes = %v, want %v", fx.name, got, fx.fits)
			}
		}
	}
}

// sameComponents fails unless the two decompositions agree on every
// component label, rank, member slab and offset.
func sameComponents(t *testing.T, label string, got, want *Components) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d components, want %d", label, got.Count(), want.Count())
	}
	for v := range want.comp {
		if got.comp[v] != want.comp[v] || got.rank[v] != want.rank[v] || got.verts[v] != want.verts[v] {
			t.Fatalf("%s: vertex %d: comp/rank/verts %d/%d/%d, want %d/%d/%d", label, v,
				got.comp[v], got.rank[v], got.verts[v], want.comp[v], want.rank[v], want.verts[v])
		}
	}
	for c := range want.off {
		if got.off[c] != want.off[c] {
			t.Fatalf("%s: off[%d] = %d, want %d", label, c, got.off[c], want.off[c])
		}
	}
}

// TestComponentsDenseMatchesCSR: the union-find labelling must label,
// rank and group every vertex as the breadth-first all-pairs oracle
// does, under dense blocks and forced CSR rows alike — R2 storms, their
// non-contiguous subsets, and uniform and clustered random windows.
func TestComponentsDenseMatchesCSR(t *testing.T) {
	t.Parallel()

	rng := stats.NewRNG(31)
	check := func(label string, pair *Pair, ids []int, r float64) {
		want := allPairsComponents(pair, ids, r)
		csr := newGraphSparse(pair, ids, r, 2)
		if !csr.Sparse() {
			t.Fatalf("%s: representation not as forced", label)
		}
		sameComponents(t, label+" NewGraph", NewGraph(pair, ids, r).Components(), want)
		sameComponents(t, label+" csr", csr.Components(), want)
	}
	for _, fx := range r2Fixtures(t) {
		n := fx.pair.N()
		check(fx.name, fx.pair, allIds(n), r2Radius)
		var subset []int
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				subset = append(subset, j)
			}
		}
		check(fx.name+" subset", fx.pair, subset, r2Radius)
	}
	for trial := 0; trial < 6; trial++ {
		n := 200 + rng.Intn(200)
		pair := randomPair(t, rng, n, 2, []float64{1, 0.1}[trial%2])
		check(fmt.Sprintf("random trial %d", trial), pair, allIds(n), 0.02)
	}
}
