package anomalia

import (
	"net"
	"reflect"
	"slices"
	"testing"

	"anomalia/internal/dirnet"
)

// ownershipStream returns the snapshots of a 600-device, 2-service fleet:
// twelve groups of 40 devices, each inside a box of side r around its
// centre, and 120 devices scattered alone. The first snapshot trains
// the detectors; in every later one a different number of groups
// shifts a different share of its members coherently, and a different
// number of scattered devices jump on their own, so each abnormal
// window has its own size and shape: massive clusters of 5 to 40
// devices beside isolated ones.
func ownershipStream(ticks int) [][][]float64 {
	const groups, members, loners = 12, 40, 120
	pos := make([][]float64, 0, groups*members+loners)
	for g := 0; g < groups; g++ {
		cx, cy := 0.12+0.15*float64(g%6), 0.25+0.5*float64(g/6)
		for i := 0; i < members; i++ {
			pos = append(pos, []float64{cx + 0.0007*float64(i%6), cy + 0.0005*float64(i/6)})
		}
	}
	for i := 0; i < loners; i++ {
		pos = append(pos, []float64{0.05 + 0.9*float64(i*37%120)/120, 0.1 + 0.8*float64(i*53%120)/120})
	}
	shifted := make([]int, groups) // times each group was hit
	snaps := [][][]float64{clonePositions(pos)}
	for t := 1; t < ticks; t++ {
		for h := 0; h <= t%3; h++ {
			g := (5*t + 7*h) % groups
			step := 0.08
			if shifted[g]%2 == 1 {
				step = -step
			}
			shifted[g]++
			for i := 0; i < 5+(13*t+11*h)%36; i++ {
				p := pos[g*members+i]
				p[0] += step
				p[1] -= step / 2
			}
		}
		for k := 0; k < t%4+1; k++ {
			p := pos[groups*members+(17*t+29*k)%loners]
			p[0] = 1 - p[0]
		}
		snaps = append(snaps, clonePositions(pos))
	}
	return snaps
}

func clonePositions(pos [][]float64) [][]float64 {
	out := make([][]float64, len(pos))
	for i, p := range pos {
		out[i] = slices.Clone(p)
	}
	return out
}

// cloneOutcome deep-copies an Outcome: the Reports, the id lists, every
// dense motion and the directory stats.
func cloneOutcome(o *Outcome) *Outcome {
	c := *o
	c.Reports = slices.Clone(o.Reports)
	for i := range c.Reports {
		if dm := o.Reports[i].DenseMotions; dm != nil {
			c.Reports[i].DenseMotions = make([][]int, len(dm))
			for k, mo := range dm {
				c.Reports[i].DenseMotions[k] = slices.Clone(mo)
			}
		}
	}
	c.Massive, c.Isolated, c.Unresolved = slices.Clone(o.Massive), slices.Clone(o.Isolated), slices.Clone(o.Unresolved)
	if o.Dist != nil {
		d := *o.Dist
		c.Dist = &d
	}
	return &c
}

// TestOutcomeOwnsItsMemory: the working memory a window is decided in
// — characterizer, motion graph, grid index, directory, decide scratch
// and decisions — is recycled once the window is decided, so an Outcome
// must alias none of it. Every deployment model decides a stream of
// windows of changing sizes and shapes, keeping each Outcome and a deep
// copy taken when it was returned; after the last window every Outcome,
// with its Reports, id lists and dense motions, must still equal its
// copy. Then an in-process distributed monitor and a directory monitor
// take turns, the second on the stream reversed, so consecutive windows
// differ in size and each decides in the memory the other just handed
// back: the in-process directory and the shard servers draw on the
// same pools.
func TestOutcomeOwnsItsMemory(t *testing.T) {
	t.Parallel()

	snaps := ownershipStream(9)
	n := len(snaps[0])
	var addrs []string
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := dirnet.NewServer()
		go srv.Serve(l)
		t.Cleanup(func() {
			srv.Close()
			l.Close()
		})
		addrs = append(addrs, l.Addr().String())
	}
	models := []struct {
		name string
		opts []Option
	}{
		{"centralized", nil},
		{"distributed", []Option{WithDistributed(true)}},
		{"directory", []Option{WithDirectory(DirectoryConfig{Addrs: addrs})}},
	}
	var abnormal [][]int // per snapshot after the first, from the centralized monitor
	for _, md := range models {
		m, err := NewMonitor(n, 2, md.opts...)
		if err != nil {
			t.Fatal(err)
		}
		var kept, copies []*Outcome
		for i, snap := range snaps {
			out, err := m.Observe(snap)
			if err != nil {
				t.Fatalf("%s: snapshot %d: %v", md.name, i, err)
			}
			if i == 0 {
				continue
			}
			if out == nil {
				t.Fatalf("%s: snapshot %d: no abnormal window", md.name, i)
			}
			kept, copies = append(kept, out), append(copies, cloneOutcome(out))
			if md.name == "centralized" {
				var ids []int
				for _, rep := range out.Reports {
					ids = append(ids, rep.Device)
				}
				abnormal = append(abnormal, ids)
			}
		}
		checkOwned(t, md.name, kept, copies)
		if md.name == "directory" {
			if ds := m.DirStats(); ds.Networked != int64(len(kept)) {
				t.Fatalf("directory: %d of %d windows decided over the wire", ds.Networked, len(kept))
			}
		}
	}

	var kept, copies []*Outcome
	for i := 1; i < len(snaps); i++ {
		out, err := Characterize(snaps[i-1], snaps[i], abnormal[i-1])
		if err != nil {
			t.Fatal(err)
		}
		kept, copies = append(kept, out), append(copies, cloneOutcome(out))
	}
	checkOwned(t, "Characterize", kept, copies)

	reversed := slices.Clone(snaps)
	slices.Reverse(reversed)
	turns := []struct {
		name         string
		m            *Monitor
		snaps        [][][]float64
		kept, copies []*Outcome
	}{
		{name: "interleaved distributed", snaps: snaps},
		{name: "interleaved directory", snaps: reversed},
	}
	for i, opts := range [][]Option{models[1].opts, models[2].opts} {
		m, err := NewMonitor(n, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		turns[i].m = m
	}
	for i := range snaps {
		for k := range turns {
			tn := &turns[k]
			out, err := tn.m.Observe(tn.snaps[i])
			if err != nil {
				t.Fatalf("%s: snapshot %d: %v", tn.name, i, err)
			}
			if i == 0 {
				continue
			}
			if out == nil {
				t.Fatalf("%s: snapshot %d: no abnormal window", tn.name, i)
			}
			tn.kept, tn.copies = append(tn.kept, out), append(tn.copies, cloneOutcome(out))
		}
	}
	for _, tn := range turns {
		checkOwned(t, tn.name, tn.kept, tn.copies)
	}
	if ds := turns[1].m.DirStats(); ds.Networked != int64(len(turns[1].kept)) {
		t.Fatalf("interleaved directory: %d of %d windows decided over the wire", ds.Networked, len(turns[1].kept))
	}
}

// checkOwned requires at least six windows of distinct sizes, at least
// one massive and one isolated verdict among them, and every kept
// Outcome equal to its copy.
func checkOwned(t *testing.T, name string, kept, copies []*Outcome) {
	t.Helper()
	sizes := map[int]bool{}
	massive, isolated := 0, 0
	for i, out := range kept {
		sizes[len(out.Reports)] = true
		massive += len(out.Massive)
		isolated += len(out.Isolated)
		if !reflect.DeepEqual(out, copies[i]) {
			t.Fatalf("%s: window %d changed after later windows were decided:\nnow  %+v\nwas  %+v", name, i, out, copies[i])
		}
	}
	if len(sizes) < 6 || massive == 0 || isolated == 0 {
		t.Fatalf("%s: %d windows of %d sizes, %d massive and %d isolated verdicts: the stream lost its shapes",
			name, len(kept), len(sizes), massive, isolated)
	}
}
