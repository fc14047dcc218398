package motion

import (
	"math"
	"reflect"
	"testing"

	"anomalia/internal/sets"
	"anomalia/internal/space"
)

// fuzzRadii are the radii a fuzz input selects from: coincident-only
// adjacency, and radii at which the six cluster centres sit apart,
// within reach of their neighbours, and all within one component.
var fuzzRadii = []float64{0, 0.004, 0.01, 0.03, 0.1}

// fuzzMaxDevices bounds a decoded window, so the oracles stay cheap.
const fuzzMaxDevices = 64

// fuzzCoord decodes one coordinate byte around centre: 0 is the low
// edge lo = centre-r of a 2r box, 255 the first float past 2r above lo
// and 254 the last one within it, and any other byte a point of
// [lo, lo+3r].
func fuzzCoord(centre, r float64, b byte) float64 {
	lo := centre - r
	switch b {
	case 0:
		return lo
	case 254, 255:
		hi := lo + 2*r
		for hi-lo > 2*r {
			hi = math.Nextafter(hi, 0)
		}
		for hi-lo <= 2*r {
			hi = math.Nextafter(hi, 2)
		}
		if b == 254 {
			hi = math.Nextafter(hi, 0)
		}
		return hi
	}
	return lo + float64(b)/253*3*r
}

// fuzzWindow decodes a clustered window: data[0] picks the dimension
// (1-3), data[1] the radius, and every following record of 1+2d bytes
// one device — its cluster (of six, centres 0.07 apart on axis 0) and
// motion in the first byte, then its coordinate bytes at k-1 and at k.
// A device whose first byte is 240 or more is left out of the vertex
// set, so subsets are non-contiguous. ok is false for inputs too short
// to hold a device.
func fuzzWindow(data []byte) (pair *Pair, ids []int, r float64, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, false
	}
	d := 1 + int(data[0]%3)
	r = fuzzRadii[int(data[1])%len(fuzzRadii)]
	rec := 1 + 2*d
	n := min((len(data)-2)/rec, fuzzMaxDevices)
	if n == 0 {
		return nil, nil, 0, false
	}
	prev := make([][]float64, n)
	cur := make([][]float64, n)
	for i := range prev {
		b := data[2+i*rec : 2+(i+1)*rec]
		cluster, move := int(b[0]%6), int(b[0]/6%3)
		prev[i] = make([]float64, d)
		cur[i] = make([]float64, d)
		for k := 0; k < d; k++ {
			centre := 0.5
			if k == 0 {
				centre = 0.3 + 0.07*float64(cluster)
			}
			// Motion 0 stays put, 1 moves the cluster by 1.5r on every
			// axis, 2 moves each device by its own coordinate byte.
			shifted := centre + []float64{0, 1.5 * r, 0}[move]
			prev[i][k] = fuzzCoord(centre, r, b[1+k])
			cur[i][k] = fuzzCoord(shifted, r, b[1+d+k])
			if move == 2 {
				cur[i][k] = fuzzCoord(centre, r, b[1+d+k]/2+b[1+k]/2)
			}
		}
		if b[0] < 240 {
			ids = append(ids, i)
		}
	}
	ps, err := space.StateFromPoints(prev)
	if err != nil {
		return nil, nil, 0, false
	}
	cs, err := space.StateFromPoints(cur)
	if err != nil {
		return nil, nil, 0, false
	}
	pair, err = NewPair(ps, cs)
	if err != nil {
		return nil, nil, 0, false
	}
	return pair, ids, r, true
}

// fuzzDevice encodes one device record of a d-dimensional window.
func fuzzDevice(head byte, prev, cur []byte) []byte {
	return append(append([]byte{head}, prev...), cur...)
}

// stormSeed is the six-cluster storm shape in miniature: six 9-device
// clusters, each an r-consistent block moving together, plus lone
// devices moving on their own.
func stormSeed() []byte {
	data := []byte{1, 2} // d = 2, r = 0.01
	for c := byte(0); c < 6; c++ {
		for i := byte(0); i < 9; i++ {
			off := 70 + 9*i
			data = append(data, fuzzDevice(6+c, []byte{off, 120 - i}, []byte{off + 3, 118 - i})...)
		}
	}
	for i := byte(0); i < 6; i++ {
		data = append(data, fuzzDevice(12+i, []byte{20 * i, 250 - 30*i}, []byte{40, 200})...)
	}
	return data
}

// ulpSeed is a 12-device cluster whose two outermost members span one
// ulp more than 2r (over) or exactly the largest span within it, at k-1
// (atCur false) or at k, inside a storm-shaped window.
func ulpSeed(over, atCur bool) []byte {
	data := []byte{1, 2}
	edge := byte(254)
	if over {
		edge = 255
	}
	for i := byte(0); i < 12; i++ {
		p, q := []byte{60 + i, 100}, []byte{60 + i, 100}
		switch i {
		case 0:
			p[0], q[0] = 0, 0
		case 11:
			if atCur {
				q[0] = edge
			} else {
				p[0] = edge
			}
		}
		data = append(data, fuzzDevice(2, p, q)...)
	}
	return append(data, stormSeed()[2:]...)
}

// cliqueOracle enumerates the maximal cliques among verts (local
// indices into adj) with pivoted Bron–Kerbosch over a boolean matrix,
// as sorted device ids — sharing no code with the graph's enumeration.
func cliqueOracle(adj [][]bool, ids []int, verts []int) [][]int {
	var out [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			clique := make([]int, len(r))
			for i, v := range r {
				clique[i] = ids[v]
			}
			out = append(out, sets.Canon(clique))
			return
		}
		pivot, best := -1, -1
		for _, u := range append(append([]int{}, p...), x...) {
			n := 0
			for _, v := range p {
				if adj[u][v] {
					n++
				}
			}
			if n > best {
				pivot, best = u, n
			}
		}
		for i := 0; i < len(p); i++ {
			v := p[i]
			if adj[pivot][v] {
				continue
			}
			var p2, x2 []int
			for _, u := range p {
				if adj[v][u] {
					p2 = append(p2, u)
				}
			}
			for _, u := range x {
				if adj[v][u] {
					x2 = append(x2, u)
				}
			}
			bk(append(append([]int{}, r...), v), p2, x2)
			p = append(p[:i:i], p[i+1:]...)
			x = append(x, v)
			i--
		}
	}
	bk(nil, append([]int{}, verts...), nil)
	sets.SortSets(out)
	return out
}

// checkAgainstOracle pins g — built by any path over pair, ids and r —
// to the all-pairs oracle: every edge, the component numbering and
// ranks, and every component's maximal motions with their bitsets.
func checkAgainstOracle(t *testing.T, label string, g *Graph, pair *Pair, ids []int, r float64) {
	t.Helper()
	vs := g.Ids()
	adj := make([][]bool, len(vs))
	for a := range adj {
		adj[a] = make([]bool, len(vs))
		for b := range adj[a] {
			adj[a][b] = a != b && pair.Adjacent(vs[a], vs[b], r)
		}
	}
	for a := range adj {
		for b := range adj {
			if a != b && g.Adjacent(vs[a], vs[b]) != adj[a][b] {
				t.Fatalf("%s: Adjacent(%d, %d) = %v, oracle %v", label, vs[a], vs[b], !adj[a][b], adj[a][b])
			}
		}
	}
	cs := g.Components()
	sameComponents(t, label, cs, allPairsComponents(pair, ids, r))
	for c := 0; c < cs.Count(); c++ {
		verts := make([]int, 0, cs.Size(c))
		for _, v := range cs.Verts(c) {
			verts = append(verts, int(v))
		}
		want := cliqueOracle(adj, vs, verts)
		got, bits := g.MaximalMotionsOfComponent(c, cs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: component %d motions %v, oracle %v", label, c, got, want)
		}
		for i, b := range bits {
			if b.Universe() != cs.Size(c) || !reflect.DeepEqual(cs.AppendIds(b, c, nil), got[i]) {
				t.Fatalf("%s: component %d motion %d bitset disagrees with %v", label, c, i, got[i])
			}
		}
	}
}

// dirtyGraph returns a graph whose memory a window larger and shaped
// unlike any fuzz window has left dirty: 100 coincident 3-d devices, one
// complete component, laid out as a dense block and then with CSR rows,
// so the words slab is full of set bits and the flat window, grid
// index, cell lists, labelling, CSR arena and its counters are longer
// than a fuzz window needs.
func dirtyGraph(t *testing.T) *Graph {
	t.Helper()
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{0.5, 0.5, 0.5}
	}
	st, err := space.StateFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(st, st)
	if err != nil {
		t.Fatal(err)
	}
	g := new(Graph).Refill(pair, allIds(len(pts)), 0.01)
	g.refillSparse(pair, allIds(len(pts)), 0.01, 2)
	if !g.Sparse() || len(g.words) != 0 || cap(g.words) < 100 {
		t.Fatalf("dirty graph: want CSR rows over a spent words slab")
	}
	return g
}

// FuzzMotionGraph decodes bytes into a small clustered window and pins
// NewGraph, the single-worker grid walk (which takes the block accept
// on crowded cells at any size) and the forced-CSR layout to the
// all-pairs oracle. NewGraph's build and the forced-CSR layout run
// twice: on fresh memory, and as a refill of a graph a larger window
// left dirty (dirtyGraph), so a slab that the refill does not clear or
// resize shows as a wrong edge, label or motion.
func FuzzMotionGraph(f *testing.F) {
	f.Add(stormSeed())
	for _, over := range []bool{false, true} {
		for _, atCur := range []bool{false, true} {
			f.Add(ulpSeed(over, atCur))
		}
	}
	f.Add([]byte{0, 0, 3, 9, 9, 3, 9, 9, 3, 9, 9})                  // coincident devices at r = 0
	f.Add([]byte{2, 4, 1, 0, 0, 0, 0, 0, 0, 1, 255, 255, 255, 255}) // d = 3 at r = 0.1
	f.Fuzz(func(t *testing.T, data []byte) {
		pair, ids, r, ok := fuzzWindow(data)
		if !ok {
			return
		}
		workers := 1 + int(data[1])%3
		checkAgainstOracle(t, "NewGraph", NewGraph(pair, ids, r), pair, ids, r)
		checkAgainstOracle(t, "NewGraph refilled", dirtyGraph(t).Refill(pair, ids, r), pair, ids, r)
		checkAgainstOracle(t, "grid", newGraphGrid(pair, ids, r), pair, ids, r)
		checkAgainstOracle(t, "csr", newGraphSparse(pair, ids, r, workers), pair, ids, r)
		checkAgainstOracle(t, "csr refilled", dirtyGraph(t).refillSparse(pair, ids, r, workers), pair, ids, r)
	})
}

// TestMixedWindowMatchesOracle pins a window whose representation is
// mixed — a 5,000-device chain, one component above componentDenseMax
// with CSR rows, with lone devices interleaved in its ids, beside six
// 300-device clusters in dense blocks — to the all-pairs oracle: every
// edge, the labelling, and the closed-form maximal motions of every
// component.
func TestMixedWindowMatchesOracle(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("the oracle scans all pairs of a 7,000-device window")
	}

	const (
		r       = 0.00002
		chain   = 5000
		cluster = 300
	)
	var pts [][]float64
	var chainIds, lone []int
	for len(chainIds) < chain {
		if i := len(pts); i%10 == 9 {
			lone = append(lone, i)
			pts = append(pts, []float64{0.6 + 0.0005*float64(len(lone)), 0.8})
			continue
		}
		chainIds = append(chainIds, len(pts))
		pts = append(pts, []float64{0.1 + 1.5*r*float64(len(chainIds)), 0.5})
	}
	var clusters [][]int
	for c := 0; c < 6; c++ {
		var members []int
		for i := 0; i < cluster; i++ {
			members = append(members, len(pts))
			// Inside an r/2 box: every pair of the cluster is an edge.
			pts = append(pts, []float64{0.4 + 0.01*float64(c) + r/2*float64(i)/cluster, 0.3})
		}
		clusters = append(clusters, members)
	}
	st, err := space.StateFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(st, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ids := allIds(len(pts))
	g := NewGraph(pair, ids, r)
	if !g.Sparse() {
		t.Fatal("the chain component must keep CSR rows")
	}
	sameAdjacency(t, "mixed", g, newGraphAllPairs(pair, ids, r))
	cs := g.Components()
	sameComponents(t, "mixed", cs, allPairsComponents(pair, ids, r))

	// The chain's motions are its consecutive pairs, a cluster's its
	// whole membership, a lone device's itself.
	want := map[int][][]int{}
	for i := 1; i < chain; i++ {
		want[chainIds[0]] = append(want[chainIds[0]], []int{chainIds[i-1], chainIds[i]})
	}
	for _, members := range clusters {
		want[members[0]] = [][]int{members}
	}
	for _, id := range lone {
		want[id] = [][]int{{id}}
	}
	if cs.Count() != len(want) {
		t.Fatalf("%d components, want %d", cs.Count(), len(want))
	}
	for c := 0; c < cs.Count(); c++ {
		first := g.IDOf(int(cs.Verts(c)[0]))
		if csr := g.isCSR(c); csr != (first == chainIds[0]) {
			t.Fatalf("component of %d: CSR rows = %v", first, csr)
		}
		got, bits := g.MaximalMotionsOfComponent(c, cs)
		if !reflect.DeepEqual(got, want[first]) {
			t.Fatalf("component of %d: %d motions, want %d", first, len(got), len(want[first]))
		}
		for i, b := range bits {
			if b.Universe() != cs.Size(c) || !reflect.DeepEqual(cs.AppendIds(b, c, nil), got[i]) {
				t.Fatalf("component of %d: motion %d bitset disagrees", first, i)
			}
		}
	}
}
