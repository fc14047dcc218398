package netsim

import (
	"fmt"
	"time"

	"anomalia/internal/stats"
)

// WireInjector is the wire-level companion of Injector: where Injector
// degrades the *ingest* path (snapshot delivery from devices to the
// monitor), WireInjector degrades the *decision* path — the requests a
// networked monitor exchanges with its directory shards. It models the
// transport faults the fault-tolerant directory client
// (internal/dirnet) exists to absorb:
//
//   - per-connection latency: a shard's responses are delayed by
//     Latency for the window, with probability SlowProb;
//   - connection drops: every request to a shard fails for the window,
//     with probability DropProb — the retry/backoff/breaker path;
//   - shard crashes: scheduled [Start, End) window ranges in which a
//     shard is down and loses its state, so a recovered shard must be
//     re-initialized, not just re-dialed;
//   - partitions: scheduled window ranges in which a shard is
//     unreachable but keeps its state — the link failed, not the host.
//
// Everything probabilistic is driven by one seeded stream consuming
// exactly one draw per shard per window regardless of outage state —
// the same determinism contract as Injector — so a run is reproducible
// from (WireConfig, window sequence) alone and crash/partition
// schedules never shift the randomness of the shards around them.
type WireInjector struct {
	cfg    WireConfig
	rng    *stats.RNG
	window int
	faults []WireFault // recycled per-window verdict table
	st     WireStats
}

// WireConfig configures a WireInjector.
type WireConfig struct {
	// Seed drives the drop/latency stream.
	Seed int64
	// Shards is the number of directory shards the schedule covers.
	Shards int
	// DropProb is the per-shard-window probability that every request
	// to the shard fails (connection refused / reset).
	DropProb float64
	// SlowProb is the per-shard-window probability that the shard's
	// responses are delayed by Latency.
	SlowProb float64
	// Latency is the response delay applied to slowed shard-windows.
	Latency time.Duration
	// Crashes are scheduled shard outages that lose state: the shard is
	// down for windows [Start, End) and restarts empty.
	Crashes []WireOutage
	// Partitions are scheduled reachability outages that keep state:
	// the shard is unreachable for windows [Start, End).
	Partitions []WireOutage
}

// WireOutage takes Shard out for windows [Start, End).
type WireOutage struct {
	Shard      int
	Start, End int
}

// WireFault is one shard's delivery verdict for one window.
type WireFault struct {
	// Drop: every request to the shard fails this window.
	Drop bool
	// Slow: responses are delayed by the configured Latency.
	Slow bool
	// Down: the shard is crashed (state lost on restart).
	Down bool
	// Partitioned: the shard is unreachable but keeps its state.
	Partitioned bool
}

// Unreachable reports whether any fault makes the shard unable to
// answer this window.
func (f WireFault) Unreachable() bool { return f.Drop || f.Down || f.Partitioned }

// WireStats counts what a WireInjector has done so far, in shard-window
// units.
type WireStats struct {
	Dropped     int64 // shard-windows lost to DropProb
	Slowed      int64 // shard-windows delayed by Latency
	CrashedWins int64 // shard-windows silenced by crash schedules
	PartedWins  int64 // shard-windows silenced by partition schedules
}

// NewWireInjector validates the configuration and builds the injector
// at window 0.
func NewWireInjector(cfg WireConfig) (*WireInjector, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("wire faults over %d shards: %w", cfg.Shards, ErrNetConfig)
	}
	if cfg.DropProb < 0 || cfg.DropProb > 1 || cfg.SlowProb < 0 || cfg.SlowProb > 1 ||
		cfg.DropProb+cfg.SlowProb > 1 {
		return nil, fmt.Errorf("drop %v + slow %v: %w", cfg.DropProb, cfg.SlowProb, ErrNetConfig)
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("latency %v: %w", cfg.Latency, ErrNetConfig)
	}
	for _, o := range append(append([]WireOutage(nil), cfg.Crashes...), cfg.Partitions...) {
		if o.Shard < 0 || o.Shard >= cfg.Shards || o.Start < 0 || o.End <= o.Start {
			return nil, fmt.Errorf("wire outage %+v: %w", o, ErrNetConfig)
		}
	}
	return &WireInjector{
		cfg:    cfg,
		rng:    stats.NewRNG(cfg.Seed),
		faults: make([]WireFault, cfg.Shards),
	}, nil
}

// Window returns the number of windows stepped so far.
func (w *WireInjector) Window() int { return w.window }

// Stats returns the lifetime fault counters.
func (w *WireInjector) Stats() WireStats { return w.st }

// scheduled reports whether (window, shard) falls inside any outage of
// the given schedule.
func scheduled(outages []WireOutage, window, shard int) bool {
	for _, o := range outages {
		if o.Shard == shard && window >= o.Start && window < o.End {
			return true
		}
	}
	return false
}

// Step advances the injector by one window and returns the per-shard
// fault verdicts. The returned slice is reused by the next Step —
// consumers that keep it must copy. Exactly one probabilistic draw is
// consumed per shard regardless of outage state, so crash and
// partition schedules never perturb the drop/latency pattern of the
// shards around them.
func (w *WireInjector) Step() []WireFault {
	for s := range w.faults {
		p := w.rng.Float64()
		f := WireFault{
			Down:        scheduled(w.cfg.Crashes, w.window, s),
			Partitioned: scheduled(w.cfg.Partitions, w.window, s),
		}
		switch {
		case f.Down:
			w.st.CrashedWins++
		case f.Partitioned:
			w.st.PartedWins++
		case p < w.cfg.DropProb:
			f.Drop = true
			w.st.Dropped++
		case p < w.cfg.DropProb+w.cfg.SlowProb:
			f.Slow = true
			w.st.Slowed++
		}
		w.faults[s] = f
	}
	w.window++
	return w.faults
}
