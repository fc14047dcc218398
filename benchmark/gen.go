package main

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"slices"
)

// maxRedraws bounds the candidates tried for one event; an event with
// no admissible candidate is dropped and counted in generator.skipped.
const maxRedraws = 100

// box is an axis-aligned bounding box in the QoS space.
type box struct{ lo, hi [services]float64 }

// apart reports whether every point of a is farther than gap from every
// point of b in the uniform norm.
func (a box) apart(b box, gap float64) bool {
	for k := 0; k < services; k++ {
		if a.lo[k]-b.hi[k] > gap || b.lo[k]-a.hi[k] > gap {
			return true
		}
	}
	return false
}

func (a box) shifted(s [services]float64) box {
	for k := 0; k < services; k++ {
		a.lo[k] += s[k]
		a.hi[k] += s[k]
	}
	return a
}

// event is one fault: a contiguous id range shifted for faultTicks.
type event struct {
	lo, hi  int
	start   int
	massive bool
	shift   [services]float64
	// base and moved bound the members before and after the shift.
	base, moved box
}

// span is a device range that moved in the current tick, with the
// verdict its fault implies: a whole cluster is massive, a lone
// gateway isolated.
type span struct {
	lo, hi  int
	massive bool
}

// generator produces a workload's binary snapshot frames. The seed
// drives the fleet layout, which devices fault, the shifts and the
// lost reports; the per-tick fault counts come from a stream fixed per
// workload, so runs with different seeds see the same load profile on
// different fleets. All buffers are reused: a steady-state Next does
// not allocate.
type generator struct {
	w    workload
	seed uint64

	base     []float64 // n×d base positions
	clusters []box     // bounding box of each cluster's base positions

	rng   *rand.Rand // seed stream
	sched *rand.Rand // workload stream: per-tick fault counts

	tick        int // index of the frame Next last produced; 0 is training
	pos         []float64
	frame       []byte
	busy        []bool  // device in an active event or outage
	clusterBusy []int32 // busy members per cluster
	events      []event // active, or recovered in the previous window
	lost        []int   // devices whose report is NaN in the current frame
	changed     []span  // devices that moved in the current frame

	outageLo, outageHi, outageAt int

	// applied and skipped count gateway (index 0) and cluster (1)
	// events placed, or dropped after maxRedraws candidates.
	applied, skipped [2]int
}

// newGenerator lays out the fleet: clusters of contiguous ids, each
// member within r/2 (uniform norm) of a uniform centre, so every
// cluster is an r-consistent clique (restriction R2).
func newGenerator(w workload, seed uint64) *generator {
	g := &generator{
		w:           w,
		seed:        seed,
		base:        make([]float64, w.n*services),
		clusters:    make([]box, (w.n+w.cluster-1)/w.cluster),
		pos:         make([]float64, w.n*services),
		frame:       make([]byte, 4+8*w.n*services),
		busy:        make([]bool, w.n),
		clusterBusy: make([]int32, (w.n+w.cluster-1)/w.cluster),
	}
	layout := rand.New(rand.NewPCG(seed, 1))
	half := w.r / 2
	for c := range g.clusters {
		var centre [services]float64
		for k := range centre {
			centre[k] = 0.12 + 0.76*layout.Float64()
		}
		b := box{}
		for k := range b.lo {
			b.lo[k], b.hi[k] = math.Inf(1), math.Inf(-1)
		}
		for dev := c * w.cluster; dev < min(w.n, (c+1)*w.cluster); dev++ {
			for k := 0; k < services; k++ {
				v := centre[k] + half*(2*layout.Float64()-1)
				g.base[dev*services+k] = v
				b.lo[k] = min(b.lo[k], v)
				b.hi[k] = max(b.hi[k], v)
			}
		}
		g.clusters[c] = b
	}
	binary.LittleEndian.PutUint32(g.frame, uint32(w.n*services))
	g.Reset()
	return g
}

// Reset rewinds the stream to the training frame, so a repeated set-up
// observes exactly the same frames.
func (g *generator) Reset() {
	h := fnv.New64a()
	io.WriteString(h, g.w.name)
	g.rng = rand.New(rand.NewPCG(g.seed, 2))
	g.sched = rand.New(rand.NewPCG(h.Sum64(), 3))
	copy(g.pos, g.base)
	for i, v := range g.pos {
		binary.LittleEndian.PutUint64(g.frame[4+8*i:], math.Float64bits(v))
	}
	clear(g.busy)
	clear(g.clusterBusy)
	g.tick = 0
	g.events = g.events[:0]
	g.lost = g.lost[:0]
	g.changed = g.changed[:0]
	g.outageLo, g.outageHi, g.outageAt = 0, 0, 0
	g.applied, g.skipped = [2]int{}, [2]int{}
}

// Frame returns the current frame's bytes; Next overwrites them.
func (g *generator) Frame() []byte { return g.frame }

// Tick returns the stream index of the current frame.
func (g *generator) Tick() int { return g.tick }

// Changed returns the device ranges that moved in the current frame,
// sorted by id: exactly the devices a threshold detector must flag on a
// loss-free stream.
func (g *generator) Changed() []span { return g.changed }

// Next advances the stream by one tick: faults that have lasted
// faultTicks recover, new faults are drawn, and reports are lost.
func (g *generator) Next() {
	g.tick++
	t := g.tick
	for _, dev := range g.lost {
		g.write(dev)
	}
	g.lost = g.lost[:0]
	g.changed = g.changed[:0]

	// Recover the faults that end now; forget those that recovered
	// before the previous window, since restriction R3 no longer
	// relates them to a new event.
	keep := g.events[:0]
	for _, e := range g.events {
		if t == e.start+faultTicks {
			g.apply(e, false)
			g.changed = append(g.changed, span{e.lo, e.hi, e.massive})
		}
		if t <= e.start+faultTicks+1 {
			keep = append(keep, e)
		}
	}
	g.events = keep

	nGW := poisson(g.sched, g.w.lambdaGW)
	nDSLAM := poisson(g.sched, g.w.lambdaDSLAM)
	for i := 0; i < nDSLAM; i++ {
		g.draw(t, true)
	}
	for i := 0; i < nGW; i++ {
		g.draw(t, false)
	}
	slices.SortFunc(g.changed, func(a, b span) int { return a.lo - b.lo })

	if g.w.outageEvery > 0 {
		g.outage(t)
	}
	if g.w.loss > 0 {
		k := int(g.w.loss * float64(g.w.n))
		for i := 0; i < k; i++ {
			g.lose(g.rng.IntN(g.w.n))
		}
	}
}

// draw applies one new fault at tick t, taking only devices in no
// active event: a partly busy cluster is redrawn, never partly applied.
// No member of the new event may lie within 4r of a member of another
// event active in this or the previous window, at its base or shifted
// position (restriction R3, applied to every group).
func (g *generator) draw(t int, massive bool) {
	kind := 0
	if massive {
		kind = 1
	}
	for try := 0; try < maxRedraws; try++ {
		var e event
		if massive {
			c := g.rng.IntN(len(g.clusters))
			if g.clusterBusy[c] > 0 {
				continue
			}
			e.lo, e.hi, e.base = c*g.w.cluster, min(g.w.n, (c+1)*g.w.cluster), g.clusters[c]
		} else {
			dev := g.rng.IntN(g.w.n)
			if g.busy[dev] {
				continue
			}
			e.lo, e.hi = dev, dev+1
			copy(e.base.lo[:], g.base[dev*services:(dev+1)*services])
			e.base.hi = e.base.lo
		}
		for k := 0; k < services; k++ {
			s := shiftMin + (shiftMax-shiftMin)*g.rng.Float64()
			if g.rng.IntN(2) == 0 {
				s = -s
			}
			if e.base.lo[k]+s < 0 || e.base.hi[k]+s > 1 {
				s = -s
			}
			e.shift[k] = s
		}
		e.moved = e.base.shifted(e.shift)
		if g.conflicts(&e) {
			continue
		}
		e.start, e.massive = t, massive
		g.events = append(g.events, e)
		g.apply(e, true)
		g.changed = append(g.changed, span{e.lo, e.hi, massive})
		g.applied[kind]++
		return
	}
	g.skipped[kind]++
}

func (g *generator) conflicts(e *event) bool {
	gap := 4 * g.w.r
	for i := range g.events {
		o := &g.events[i]
		if !e.base.apart(o.base, gap) || !e.base.apart(o.moved, gap) ||
			!e.moved.apart(o.base, gap) || !e.moved.apart(o.moved, gap) {
			return true
		}
	}
	return false
}

// apply moves an event's members to their shifted (on) or base
// positions and updates the busy marks.
func (g *generator) apply(e event, on bool) {
	for dev := e.lo; dev < e.hi; dev++ {
		for k := 0; k < services; k++ {
			v := g.base[dev*services+k]
			if on {
				v += e.shift[k]
			}
			g.pos[dev*services+k] = v
		}
		g.write(dev)
		g.setBusy(dev, on)
	}
}

func (g *generator) setBusy(dev int, on bool) {
	if g.busy[dev] == on {
		return
	}
	g.busy[dev] = on
	if on {
		g.clusterBusy[dev/g.w.cluster]++
	} else {
		g.clusterBusy[dev/g.w.cluster]--
	}
}

// outage silences one idle cluster for outageTicks ticks every
// outageEvery ticks, and keeps it out of the event draw until the
// health policy has re-admitted it.
func (g *generator) outage(t int) {
	switch t % g.w.outageEvery {
	case outageStart:
		for try := 0; try < maxRedraws; try++ {
			c := g.rng.IntN(len(g.clusters))
			if g.clusterBusy[c] > 0 {
				continue
			}
			g.outageLo, g.outageHi, g.outageAt = c*g.w.cluster, min(g.w.n, (c+1)*g.w.cluster), t
			for dev := g.outageLo; dev < g.outageHi; dev++ {
				g.setBusy(dev, true)
			}
			break
		}
	case (outageStart + g.w.outageTicks + outageCooldown) % g.w.outageEvery:
		for dev := g.outageLo; dev < g.outageHi; dev++ {
			g.setBusy(dev, false)
		}
		g.outageLo, g.outageHi = 0, 0
	}
	if g.outageHi > 0 && t < g.outageAt+g.w.outageTicks {
		for dev := g.outageLo; dev < g.outageHi; dev++ {
			g.lose(dev)
		}
	}
}

// lose replaces a device's report in the current frame with NaN.
func (g *generator) lose(dev int) {
	for k := 0; k < services; k++ {
		binary.LittleEndian.PutUint64(g.frame[4+8*(dev*services+k):], math.Float64bits(math.NaN()))
	}
	g.lost = append(g.lost, dev)
}

// write encodes a device's true position into the frame.
func (g *generator) write(dev int) {
	for k := 0; k < services; k++ {
		i := dev*services + k
		binary.LittleEndian.PutUint64(g.frame[4+8*i:], math.Float64bits(g.pos[i]))
	}
}

// poisson draws from Poisson(lambda) by Knuth's product method, which
// is exact and cheap for the small rates the workloads use.
func poisson(r *rand.Rand, lambda float64) int {
	limit, p, k := math.Exp(-lambda), 1.0, 0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
