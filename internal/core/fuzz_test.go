package core

import (
	"fmt"
	"testing"

	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// fuzzRadii are the radii a fuzz input selects from. Groups sit 0.25
// apart and devices within 2r of their group's centre on each axis, so
// groups never touch: every window has one component per populated
// group or more.
var fuzzRadii = []float64{0.01, 0.02, 0.04}

// fuzzMaxDevices bounds a decoded window, so the exact search stays
// cheap.
const fuzzMaxDevices = 24

// fuzzComponentsWindow decodes a small clustered window: data[0] picks
// τ (1-3) and the radius, and every following 5-byte record one device.
// The record's first byte picks the device's group (of four, centres
// 0.25 apart on the first axis) and the group's shift at k (none, +1.5r
// or -1.5r on every axis); the other four are its offsets from the
// centre at k-1 and at k, each byte spanning [-2r, 2r]. A device whose
// first byte is 240 or more stays normal. ok is false for inputs too
// short to hold a device.
func fuzzComponentsWindow(data []byte) (pair *motion.Pair, ids []int, cfg Config, ok bool) {
	if len(data) < 1+5 {
		return nil, nil, Config{}, false
	}
	r := fuzzRadii[int(data[0]/3)%len(fuzzRadii)]
	cfg = Config{R: r, Tau: 1 + int(data[0]%3), Exact: true, Budget: 50_000}
	n := min((len(data)-1)/5, fuzzMaxDevices)
	prev := make([][]float64, n)
	cur := make([][]float64, n)
	off := func(b byte) float64 { return (float64(b)/255*4 - 2) * r }
	for i := range prev {
		b := data[1+5*i : 1+5*(i+1)]
		cx := 0.15 + 0.25*float64(b[0]%4)
		shift := []float64{0, 1.5 * r, -1.5 * r}[b[0]/4%3]
		prev[i] = []float64{cx + off(b[1]), 0.5 + off(b[2])}
		cur[i] = []float64{cx + shift + off(b[3]), 0.5 + shift + off(b[4])}
		if b[0] < 240 {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return nil, nil, Config{}, false
	}
	ps, err := space.StateFromPoints(prev)
	if err != nil {
		return nil, nil, Config{}, false
	}
	cs, err := space.StateFromPoints(cur)
	if err != nil {
		return nil, nil, Config{}, false
	}
	pair, err = motion.NewPair(ps, cs)
	if err != nil {
		return nil, nil, Config{}, false
	}
	return pair, ids, cfg, true
}

// recycledNew characterizes a window on the memory a larger, unlike
// window handed back: 60 devices in five groups, each strung along the
// first axis at r = 0.04 and τ = 1 so that its maximal motions overlap,
// whose enumeration leaves the characterizer's tables, trie and split
// bitsets, and its motion graph's slabs, dirty and longer than a fuzz
// window needs. The memory returns through the pools, so the
// attempt repeats until New draws both the big window's characterizer
// and its graph.
func recycledNew(t *testing.T, pair *motion.Pair, ids []int, cfg Config) (*Characterizer, error) {
	t.Helper()
	pts := make([][]float64, 60)
	for i := range pts {
		pts[i] = []float64{0.1 + 0.2*float64(i%5) + 0.012*float64(i/5), 0.3 + 0.003*float64(i%7)}
	}
	st, err := space.StateFromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	big, err := motion.NewPair(st, st)
	if err != nil {
		t.Fatal(err)
	}
	bigIds := make([]int, len(pts))
	for i := range bigIds {
		bigIds[i] = i
	}
	for range 20 {
		c0, err := New(big, bigIds, Config{R: 0.04, Tau: 1, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c0.CharacterizeAll(); err != nil {
			t.Fatal(err)
		}
		g0 := c0.graph
		c0.Release()
		c, err := New(pair, ids, cfg)
		if err != nil || c == c0 && c.graph == g0 {
			return c, err
		}
		c.Release()
	}
	t.Fatal("the pools never handed the big window's memory back")
	return nil, nil
}

// FuzzCharacterizeComponents decodes bytes into a small clustered window
// and checks the Components relation on it in exact mode: deciding each
// connected component of the motion graph as its own window gives every
// device the whole window's Result, or the same error. The whole window
// is also decided on memory a larger window handed back (recycledNew),
// and every device's Result and error must match the ones decided on
// fresh memory. Nothing in the target releases a characterizer it keeps,
// so the pools hold no memory when a fresh window is built.
func FuzzCharacterizeComponents(f *testing.F) {
	// Two crowded groups at τ = 2, r = 0.02: one standing still, one
	// shifting, each device on its own offsets.
	crowded := []byte{5}
	for i := byte(0); i < 16; i++ {
		crowded = append(crowded, i%2+4*(i%2), 37*i, 91*i+7, 53*i+11, 29*i+3)
	}
	f.Add(crowded)
	// Coincident devices in every group, one left normal, at τ = 1.
	f.Add([]byte{0, 0, 9, 9, 9, 9, 1, 9, 9, 9, 9, 2, 9, 9, 9, 9, 3, 9, 9, 9, 9, 240, 9, 9, 9, 9})
	// A lone device at r = 0.04, τ = 3.
	f.Add([]byte{8, 0, 128, 128, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		pair, ids, cfg, ok := fuzzComponentsWindow(data)
		if !ok {
			return
		}
		runComponents(t, "fuzz", pair, ids, cfg)

		fresh, err := New(pair, ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recycled, err := recycledNew(t, pair, ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range fresh.Abnormal() {
			want, wantErr := fresh.Characterize(j)
			got, gotErr := recycled.Characterize(j)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameResult(got, want) {
				t.Fatalf("device %d on recycled memory: %+v, %v; on fresh memory: %+v, %v", j, got, gotErr, want, wantErr)
			}
		}
	})
}
