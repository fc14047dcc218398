package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"anomalia"
	"anomalia/internal/metrics"
)

// system is the gateway's composition under test: binary frame →
// FrameReader + Rows with unusable rows nil'd → Monitor.ObservePartial
// (or Observe) → encoding/json of the {"t","outcome"} record.
type system struct {
	w      workload
	mon    *anomalia.Monitor
	reg    *metrics.Registry
	shards *shards
	src    *source
	out    bytes.Buffer
}

func newSystem(w workload) (*system, error) {
	s := &system{w: w, src: newSource(w.n, w.strict)}
	opts := []anomalia.Option{anomalia.WithRadius(w.r), anomalia.WithTau(tau)}
	switch w.path {
	case distributed:
		opts = append(opts, anomalia.WithDistributed(true))
	case networked:
		sh, err := startShards(shardCount, false)
		if err != nil {
			return nil, err
		}
		s.shards = sh
		s.reg = metrics.NewRegistry()
		opts = append(opts,
			anomalia.WithDirectory(anomalia.DirectoryConfig{Addrs: sh.addrs()}),
			anomalia.WithMetrics(s.reg))
	}
	mon, err := anomalia.NewMonitor(w.n, services, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.mon = mon
	return s, nil
}

// tick runs one frame through the system. It returns the window's
// outcome and JSON record, both nil for a quiet window; the record is
// valid until the next tick.
func (s *system) tick(frame []byte, t int) (*anomalia.Outcome, []byte, error) {
	rows, faults, err := s.src.next(frame)
	if err != nil {
		return nil, nil, err
	}
	if len(faults) > 0 {
		reportFaults(io.Discard, t, faults)
	}
	var out *anomalia.Outcome
	if s.w.strict {
		out, err = s.mon.Observe(rows)
	} else {
		out, err = s.mon.ObservePartial(rows)
	}
	if err != nil || out == nil {
		return out, nil, err
	}
	s.out.Reset()
	if err := json.NewEncoder(&s.out).Encode(windowRecord{Time: t, Outcome: out}); err != nil {
		return nil, nil, err
	}
	return out, s.out.Bytes(), nil
}

// close drops the directory connections and stops the shards.
func (s *system) close() {
	if s.mon != nil {
		s.mon.Reset()
	}
	if s.shards != nil {
		s.shards.close()
	}
}

// runConfig sizes one Monitor run.
type runConfig struct {
	ticks int
	// limit is a safety stop on the timed loop's wall time, far beyond
	// what ticks take on the reference machine, so that a much slower
	// change still finishes; 0 means none.
	limit   time.Duration
	setups  int
	digests bool // hash every record, for the traced pass's parity check
}

// measurement is what one Monitor run recorded over its timed ticks.
type measurement struct {
	setups   []float64 // seconds per set-up
	ticks    []float64 // milliseconds per timed tick
	allocs   uint64    // heap bytes allocated inside timed ticks
	retained uint64    // live heap the system holds after its last tick
	gcCycles uint32
	gcPause  time.Duration
	digests  [][sha256.Size]byte // per timed tick: SHA-256 of its record
	digest   []byte              // SHA-256 of every timed record in order
	health   anomalia.HealthStats
}

// setUp builds a system and brings it to steady state: the training
// snapshot and warmupTicks ticks. It returns the time the system spent,
// frame generation excluded.
func setUp(w workload, g *generator, chk *checker) (*system, time.Duration, error) {
	g.Reset()
	t0 := time.Now()
	s, err := newSystem(w)
	spent := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i <= warmupTicks; i++ {
		if i > 0 {
			g.Next()
		}
		t0 := time.Now()
		out, _, err := s.tick(g.Frame(), g.Tick())
		spent += time.Since(t0)
		chk.observed(g.Tick(), out, err, g.Changed())
	}
	return s, spent, nil
}

// measure sets the system up cfg.setups times, keeps the last one, and
// runs the closed loop: one client generates each frame outside the
// timer and sends the next once the previous record is written.
func measure(w workload, g *generator, cfg runConfig, chk *checker) (*measurement, error) {
	m := &measurement{ticks: make([]float64, 0, 1<<14)}
	var s *system
	var before uint64 // live heap without a system: the generator's
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		if i == 0 {
			before = settledHeap()
		} else {
			runtime.GC()
		}
		var spent time.Duration
		var err error
		if s, spent, err = setUp(w, g, chk); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, spent.Seconds())
	}
	defer s.close()

	// Every run enters the loop right after a collection, so the pacer's
	// cycles fall at the same points of the stream from run to run.
	runtime.GC()
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	all := sha256.New()
	start := time.Now()
	for n := 0; n < cfg.ticks && (cfg.limit == 0 || time.Since(start) < cfg.limit); n++ {
		g.Next()
		if s.reg != nil && n%scrapeEvery == 0 {
			if err := s.reg.WritePrometheus(io.Discard); err != nil {
				return nil, err
			}
		}
		rtmetrics.Read(samples)
		a0 := samples[0].Value.Uint64()
		t0 := time.Now()
		out, rec, err := s.tick(g.Frame(), g.Tick())
		el := time.Since(t0)
		rtmetrics.Read(samples)
		m.allocs += samples[0].Value.Uint64() - a0
		m.ticks = append(m.ticks, float64(el)/1e6)
		chk.observed(g.Tick(), out, err, g.Changed())
		if cfg.digests {
			m.digests = append(m.digests, sha256.Sum256(rec))
			all.Write(rec)
		}
	}
	runtime.ReadMemStats(&ms1)
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	// The heap live at a natural collection depends on where in a tick it
	// lands and on what was allocated during its mark; forced ones after
	// the last tick read the same on every run.
	if after := settledHeap(); after > before {
		m.retained = after - before
	}
	m.digest = all.Sum(nil)
	m.health = s.mon.HealthStats()
	return m, nil
}

// settledHeap collects twice and returns the heap found live. The first
// collection only moves what sync.Pools cache to their victim lists,
// and how much they cache depends on when the last natural collection
// fell; the second frees it.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}
