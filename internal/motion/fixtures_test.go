package motion

import (
	"testing"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// Fixtures reconstructing the paper's illustrative figures. Device
// numbering is 0-based here; the paper's device i is index i-1.

// figure1Pair reproduces Figure 1: six devices in a 1-dimensional QoS
// space with exactly two maximal r-consistent sets B1 = {1,2,3,4} and
// B2 = {1,2,3,5,6} (paper numbering), r = 0.1. Both states are identical
// so motions coincide with static consistent sets.
func figure1Pair(t testing.TB) (*Pair, float64) {
	t.Helper()
	coords := [][]float64{
		{0.20}, // 1
		{0.25}, // 2
		{0.28}, // 3
		{0.10}, // 4
		{0.32}, // 5
		{0.35}, // 6
	}
	prev, err := space.StateFromPoints(coords)
	if err != nil {
		t.Fatal(err)
	}
	cur := prev.Clone()
	p, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return p, 0.1
}

// figure1Maximal is the expected family for figure1Pair (0-based ids).
var figure1Maximal = [][]int{
	{0, 1, 2, 3},    // B1 = {1,2,3,4}
	{0, 1, 2, 4, 5}, // B2 = {1,2,3,5,6}
}

// figure2Pair reproduces Figure 2: ten devices, 1-d QoS, maximal motions
// C1={1,2,3}, C2={2,3,4}, C3={5,...,9}, C4={10} (paper numbering), τ = 3,
// r = 0.1. The second state is a uniform translation, so adjacency is
// preserved across the window.
func figure2Pair(t testing.TB) (*Pair, float64) {
	t.Helper()
	prevCoords := [][]float64{
		{0.10}, // 1
		{0.20}, // 2
		{0.25}, // 3
		{0.40}, // 4
		{0.65}, // 5
		{0.67}, // 6
		{0.70}, // 7
		{0.72}, // 8
		{0.75}, // 9
		{0.99}, // 10
	}
	prev, err := space.StateFromPoints(prevCoords)
	if err != nil {
		t.Fatal(err)
	}
	cur := prev.Clone()
	for j := 0; j < cur.Len(); j++ {
		p := cur.AtClone(j)
		p[0] -= 0.05
		if err := cur.Set(j, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair, 0.1
}

// figure2Maximal is the expected family for figure2Pair (0-based ids).
var figure2Maximal = [][]int{
	{0, 1, 2},       // C1 = {1,2,3}
	{1, 2, 3},       // C2 = {2,3,4}
	{4, 5, 6, 7, 8}, // C3 = {5,...,9}
	{9},             // C4 = {10}
}

// figure3Pair reproduces Figure 3 (the ACP impossibility scenario): five
// devices with maximal motions C1={1,2,3,4} and C2={2,3,4,5}, τ = 3,
// r = 0.1.
func figure3Pair(t testing.TB) (*Pair, float64) {
	t.Helper()
	prevCoords := [][]float64{
		{0.10}, // 1
		{0.20}, // 2
		{0.25}, // 3
		{0.30}, // 4
		{0.40}, // 5
	}
	prev, err := space.StateFromPoints(prevCoords)
	if err != nil {
		t.Fatal(err)
	}
	cur := prev.Clone()
	for j := 0; j < cur.Len(); j++ {
		p := cur.AtClone(j)
		p[0] += 0.05
		if err := cur.Set(j, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair, 0.1
}

// figure3Maximal is the expected family for figure3Pair (0-based ids).
var figure3Maximal = [][]int{
	{0, 1, 2, 3}, // C1 = {1,2,3,4}
	{1, 2, 3, 4}, // C2 = {2,3,4,5}
}

// randomPair builds a random pair of states for property tests: n devices
// in d dimensions confined to a box of the given side so that interesting
// adjacency structure appears.
func randomPair(t testing.TB, r *stats.RNG, n, d int, side float64) *Pair {
	t.Helper()
	prev, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	prev.Uniform(func() float64 { return r.Float64() * side })
	cur.Uniform(func() float64 { return r.Float64() * side })
	pair, err := NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func allIds(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func sameFamily(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// cliqueSizes are the clique fixtures' sizes: the smallest clique, one
// and just over one bitset word, and a DSLAM-sized motion.
var cliqueSizes = []int{2, 64, 65, 500}

// cliquePair builds lead isolated devices followed by s devices that form
// one r-consistent motion — or, with minusOne, the same devices less the
// edge between the first and the last of them — and returns the pair, r
// and the expected maximal motions. lead shifts the clique's local
// indices off a word boundary.
func cliquePair(t testing.TB, s, lead int, minusOne bool) (*Pair, float64, [][]int) {
	t.Helper()
	const r = 0.05 // 2r = 0.1
	var prev, cur [][]float64
	var want [][]int
	for i := 0; i < lead; i++ {
		p := []float64{0.05 + 0.15*float64(i), 0.9}
		prev = append(prev, p)
		cur = append(cur, p)
		want = append(want, []int{i})
	}
	for i := 0; i < s; i++ {
		// Spread well inside 2r; with minusOne the first and last device
		// sit 0.12 apart on x and every other device within 0.1 of both.
		x := 0.3 + 0.05*float64(i)/float64(s)
		if minusOne {
			switch i {
			case 0:
				x = 0.3
			case s - 1:
				x = 0.42
			default:
				x = 0.33 + 0.06*float64(i)/float64(s)
			}
		}
		prev = append(prev, []float64{x, 0.5})
		cur = append(cur, []float64{x + 0.1, 0.6})
	}
	all := make([]int, 0, s)
	for i := lead; i < lead+s; i++ {
		all = append(all, i)
	}
	if minusOne {
		want = append(want, all[:s-1], all[1:])
	} else {
		want = append(want, all)
	}
	prevS, err := space.StateFromPoints(prev)
	if err != nil {
		t.Fatal(err)
	}
	curS, err := space.StateFromPoints(cur)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(prevS, curS)
	if err != nil {
		t.Fatal(err)
	}
	return pair, r, want
}

// chainPair builds n stationary devices on a line, spaced so that only
// consecutive devices are adjacent: one component whose maximal motions
// are exactly the n-1 consecutive pairs, with n-1 edges.
func chainPair(t testing.TB, n int) (*Pair, float64) {
	t.Helper()
	const r = 0.00002
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{0.1 + float64(i)*1.5*r, 0.5}
	}
	prev, err := space.StateFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewPair(prev, prev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return pair, r
}
