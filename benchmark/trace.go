package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"anomalia"
	"anomalia/internal/core"
	"anomalia/internal/detect"
	"anomalia/internal/dirnet"
	"anomalia/internal/dist"
	"anomalia/internal/health"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// layers accumulates the traced pass's per-layer times and counts over
// its timed ticks.
type layers struct {
	ticks, windows int

	decode, health, detect time.Duration
	held, skipped          int
	abnormal               int

	graph, components, enumerate time.Duration
	// core is core.New + CharacterizeAll whole; its self time subtracts
	// the graph, component and enumeration work it repeats inside.
	core                          time.Duration
	vertices, denseWindows        int
	maxComponent, motions         int
	decisions, exact, collections int

	distAdvance, distDecide time.Duration
	rebuilds, viewSize      int

	dirWindow, dirServer                time.Duration
	dirBytes, dirRoundTrips, dirRetries int64
	dirDegraded                         int

	encode      time.Duration
	encodeBytes int
}

// tracer replays a workload by calling each layer's public function in
// the order the Monitor does, timing every call. It decides every
// abnormal window on all three paths — centralized, in-process
// directory and networked directory — and checks they agree; the
// workload's own path feeds the JSON record, which must equal the
// Monitor's byte for byte.
type tracer struct {
	w      workload
	src    *source
	dets   []*detect.Device
	walker *detect.Walker
	health *health.Tracker
	clean  []bool
	rows   [][]float64
	prev   *space.State
	spare  *space.State
	abn    []int
	cfg    core.Config
	dir    *dist.Directory
	client *dirnet.Client
	shards *shards
	out    bytes.Buffer
	sum    layers
}

func newTracer(w workload) (*tracer, error) {
	tr := &tracer{
		w:      w,
		src:    newSource(w.n, w.strict),
		dets:   make([]*detect.Device, w.n),
		walker: detect.NewWalker(0),
		clean:  make([]bool, w.n),
		rows:   make([][]float64, w.n),
		cfg:    core.Config{R: w.r, Tau: tau, Exact: true},
	}
	threshold := func(int) (detect.Detector, error) { return detect.NewThreshold(0.05) }
	for dev := range tr.dets {
		d, err := detect.NewDevice(services, threshold)
		if err != nil {
			return nil, err
		}
		tr.dets[dev] = d
	}
	var err error
	if tr.health, err = health.New(w.n, health.DefaultPolicy()); err != nil {
		return nil, err
	}
	if w.path != networked {
		return tr, nil
	}
	if tr.shards, err = startShards(shardCount, true); err != nil {
		return nil, err
	}
	if tr.client, err = dirnet.NewClient(dirnet.Config{Addrs: tr.shards.addrs()}); err != nil {
		tr.close()
		return nil, err
	}
	return tr, nil
}

func (tr *tracer) close() {
	if tr.client != nil {
		tr.client.Close()
	}
	if tr.shards != nil {
		tr.shards.close()
	}
}

// tick runs one frame through the traced composition and returns the
// window's JSON record (nil for a quiet window).
func (tr *tracer) tick(frame []byte, t int) ([]byte, error) {
	s := &tr.sum
	s.ticks++
	t0 := time.Now()
	rows, faults, err := tr.src.next(frame)
	if err == nil && len(faults) > 0 {
		reportFaults(io.Discard, t, faults)
	}
	t1 := time.Now()
	s.decode += t1.Sub(t0)
	if err != nil {
		return nil, err
	}

	// Classification and health dispatch. The strict path only needs
	// the verdict that every row is clean.
	nClean := tr.walker.Classify(tr.dets, rows, tr.clean)
	switch {
	case tr.w.strict:
		if nClean != len(rows) {
			return nil, fmt.Errorf("%d unusable rows on the strict path", len(rows)-nClean)
		}
	case nClean == len(rows) && tr.health.AllLive():
		tr.health.ConsumeAll()
	default:
		for dev := range tr.rows {
			switch tr.health.Report(dev, tr.clean[dev]) {
			case health.Consume:
				tr.rows[dev] = rows[dev]
			case health.Hold:
				s.held++
				tr.rows[dev] = nil
				if tr.prev != nil {
					tr.rows[dev] = tr.prev.At(dev)
				}
			default:
				s.skipped++
				tr.rows[dev] = nil
			}
		}
		rows = tr.rows
	}
	t2 := time.Now()
	s.health += t2.Sub(t1)

	cur := tr.spare
	tr.spare = nil
	if cur == nil {
		if cur, err = space.NewState(tr.w.n, services); err != nil {
			return nil, err
		}
	}
	prev := tr.prev
	visit := func(dev int, row []float64) {
		dst := cur.At(dev)
		switch {
		case row != nil:
			copy(dst, row)
			dst.Clamp()
		case prev != nil:
			copy(dst, prev.At(dev))
		default:
			clear(dst)
		}
	}
	if tr.w.strict {
		tr.abn, err = tr.walker.Walk(tr.dets, rows, visit, tr.abn[:0])
	} else {
		tr.abn, err = tr.walker.WalkSkip(tr.dets, rows, visit, tr.abn[:0])
	}
	s.detect += time.Since(t2)
	if err != nil {
		tr.spare = cur
		return nil, err
	}
	tr.prev, tr.spare = cur, prev
	s.abnormal += len(tr.abn)
	if prev == nil || len(tr.abn) == 0 {
		return nil, nil
	}
	s.windows++
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		return nil, err
	}

	// The workload's own path runs first, on caches as cold as the
	// Monitor's; the other two are oracles.
	var central, inproc, wire *anomalia.Outcome
	for _, p := range []decisionPath{tr.w.path, (tr.w.path + 1) % 3, (tr.w.path + 2) % 3} {
		var err error
		switch p {
		case centralized:
			central, err = tr.decideCentral(pair)
		case distributed:
			inproc, err = tr.decideDirectory(pair)
		case networked:
			if tr.client != nil {
				wire = tr.decideWire(pair)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%v path: %w", p, err)
		}
	}
	if err := sameVerdicts(central, inproc); err != nil {
		return nil, fmt.Errorf("centralized vs in-process directory: %w", err)
	}
	if wire == nil {
		wire = central
	} else if !reflect.DeepEqual(inproc, wire) {
		return nil, fmt.Errorf("networked outcome differs from the in-process directory's")
	}
	own := central
	switch tr.w.path {
	case distributed:
		own = inproc
	case networked:
		own = wire
	}

	t3 := time.Now()
	tr.out.Reset()
	if err := json.NewEncoder(&tr.out).Encode(windowRecord{Time: t, Outcome: own}); err != nil {
		return nil, err
	}
	s.encode += time.Since(t3)
	s.encodeBytes += tr.out.Len()
	return tr.out.Bytes(), nil
}

// decideCentral times the centralized decision whole, then its graph,
// component and enumeration layers one by one.
func (tr *tracer) decideCentral(pair *motion.Pair) (*anomalia.Outcome, error) {
	s := &tr.sum
	t0 := time.Now()
	char, err := core.New(pair, tr.abn, tr.cfg)
	if err != nil {
		return nil, err
	}
	results, err := char.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	out := &anomalia.Outcome{Reports: make([]anomalia.Report, 0, len(results))}
	for _, res := range results {
		addReport(out, res)
		s.decisions++
		if res.Rule == core.RuleTheorem7 || res.Rule == core.RuleCorollary8 {
			s.exact++
		}
		s.collections += res.Cost.CollectionsTested
	}
	t1 := time.Now()
	s.core += t1.Sub(t0)

	g := motion.NewGraph(pair, tr.abn, tr.w.r)
	t2 := time.Now()
	s.graph += t2.Sub(t1)
	s.vertices += g.Len()
	if !g.Sparse() {
		s.denseWindows++
	}
	cs := g.Components()
	t3 := time.Now()
	s.components += t3.Sub(t2)
	for c := 0; c < cs.Count(); c++ {
		motions, _ := g.MaximalMotionsOfComponent(c, cs)
		s.motions += len(motions)
		s.maxComponent = max(s.maxComponent, cs.Size(c))
	}
	s.enumerate += time.Since(t3)
	return out, nil
}

// decideDirectory advances the persistent in-process directory (built
// on the first abnormal window) and decides the window against it.
func (tr *tracer) decideDirectory(pair *motion.Pair) (*anomalia.Outcome, error) {
	s := &tr.sum
	t0 := time.Now()
	if tr.dir == nil {
		dir, err := dist.NewDirectory(pair, tr.abn, tr.w.r)
		if err != nil {
			return nil, err
		}
		tr.dir = dir
		s.rebuilds++
	} else {
		st, err := tr.dir.Advance(pair, tr.abn, nil)
		if err != nil {
			tr.dir = nil
			return nil, err
		}
		if st.Rebuilt {
			s.rebuilds++
		}
	}
	t1 := time.Now()
	s.distAdvance += t1.Sub(t0)
	decisions, total, err := dist.DecideAll(tr.dir, tr.cfg)
	if err != nil {
		return nil, err
	}
	out := outcomeOf(decisions, total)
	s.distDecide += time.Since(t1)
	s.viewSize += total.ViewSize
	return out, nil
}

// decideWire decides the window over the loopback shards. A window the
// shards cannot serve returns nil: the Monitor would fall back to the
// centralized verdicts.
func (tr *tracer) decideWire(pair *motion.Pair) *anomalia.Outcome {
	s := &tr.sum
	before, server := tr.client.Stats(), tr.shards.serverTime()
	t0 := time.Now()
	decisions, total, err := tr.client.DecideWindow(pair, tr.abn, tr.cfg)
	var out *anomalia.Outcome
	if err == nil {
		out = outcomeOf(decisions, total)
	}
	s.dirWindow += time.Since(t0)
	s.dirServer += tr.shards.serverTime() - server
	after := tr.client.Stats()
	s.dirBytes += after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
	s.dirRoundTrips += after.RoundTrips - before.RoundTrips
	s.dirRetries += after.Retries - before.Retries
	if err != nil {
		s.dirDegraded++
	}
	return out
}

// outcomeOf folds directory decisions into an Outcome the way the
// Monitor does.
func outcomeOf(decisions []dist.Decision, total dist.Stats) *anomalia.Outcome {
	out := &anomalia.Outcome{
		Reports: make([]anomalia.Report, 0, len(decisions)),
		Dist: &anomalia.DistStats{
			Messages:     total.Messages,
			Trajectories: total.Trajectories,
			ViewSize:     total.ViewSize,
		},
	}
	for _, dec := range decisions {
		addReport(out, dec.Result)
	}
	return out
}

func addReport(out *anomalia.Outcome, res core.Result) {
	rep := anomalia.Report{
		Device:       res.Device,
		Rule:         res.Rule.String(),
		DenseMotions: res.Dense,
		Cost: anomalia.Cost{
			MaximalMotions:    res.Cost.MaximalMotions,
			DenseMotions:      res.Cost.DenseMotions,
			NeighborsScanned:  res.Cost.NeighborsScanned,
			CollectionsTested: res.Cost.CollectionsTested,
		},
	}
	switch res.Class {
	case core.ClassIsolated:
		rep.Class = anomalia.Isolated
		out.Isolated = append(out.Isolated, rep.Device)
	case core.ClassMassive:
		rep.Class = anomalia.Massive
		out.Massive = append(out.Massive, rep.Device)
	default:
		rep.Class = anomalia.Unresolved
		out.Unresolved = append(out.Unresolved, rep.Device)
	}
	out.Reports = append(out.Reports, rep)
}

// traceRun replays the first len(want) timed ticks of a Monitor run
// through the tracer and checks each record against the Monitor's.
func traceRun(w workload, g *generator, want [][sha256.Size]byte, chk *checker) (*layers, []byte, error) {
	tr, err := newTracer(w)
	if err != nil {
		return nil, nil, err
	}
	defer tr.close()
	g.Reset()
	for i := 0; i <= warmupTicks; i++ {
		if i > 0 {
			g.Next()
		}
		if _, err := tr.tick(g.Frame(), g.Tick()); err != nil {
			return nil, nil, fmt.Errorf("traced warm-up tick %d: %w", g.Tick(), err)
		}
	}
	tr.sum = layers{}
	runtime.GC() // as measure does before its timed ticks
	all := sha256.New()
	for _, digest := range want {
		g.Next()
		chk.attempted++
		rec, err := tr.tick(g.Frame(), g.Tick())
		if err == nil && sha256.Sum256(rec) != digest {
			err = fmt.Errorf("traced record differs from the Monitor's")
		}
		if err != nil {
			chk.fail(g.Tick(), err)
		}
		all.Write(rec)
	}
	return &tr.sum, all.Sum(nil), nil
}
