package netsim

import (
	"fmt"
	"math"

	"anomalia/internal/stats"
)

// Injector degrades the *delivery* of snapshots, independent of the QoS
// values the network generates: netsim.Network decides what a gateway
// measured, the Injector decides whether that measurement arrives at
// the monitor intact. It models the transport faults the degraded
// ingestion path (Monitor.ObservePartial, the gateway's tolerant mode)
// exists to absorb:
//
//   - random report loss: each device-tick is dropped with DropProb
//     (the row becomes nil);
//   - value corruption: each device-tick is garbled with CorruptProb —
//     one service value is replaced by NaN or ±Inf, the bit patterns a
//     damaged frame or a broken sensor actually produces;
//   - burst outages: scheduled [Start, End) tick windows in which a
//     contiguous device range [From, To) goes completely silent — the
//     shape that drives devices through hold, quarantine and
//     re-admission.
//
// Everything is driven by one seeded stream, consuming exactly one draw
// per device per tick regardless of outage state, so a run is
// reproducible from (Config, tick sequence) alone and outage windows do
// not shift the randomness of the devices around them.
type Injector struct {
	cfg  InjectorConfig
	rng  *stats.RNG
	rows [][]float64 // recycled degraded row table
	mask []bool      // recycled delivered-clean mask
	buf  []float64   // recycled arena for corrupted row copies
	st   InjectStats
}

// InjectorConfig configures an Injector.
type InjectorConfig struct {
	// Seed drives the drop/corruption stream.
	Seed int64
	// DropProb is the per-device-tick probability a report is lost.
	DropProb float64
	// CorruptProb is the per-device-tick probability a delivered report
	// carries a non-finite value.
	CorruptProb float64
	// Outages are scheduled burst losses; they silence their device
	// range regardless of the probabilistic stream.
	Outages []Outage
}

// Outage silences devices [From, To) for ticks [Start, End).
type Outage struct {
	From, To   int
	Start, End int
}

// InjectStats counts what an Injector has done so far.
type InjectStats struct {
	Dropped     int64 // reports lost to DropProb
	Corrupted   int64 // reports garbled with a non-finite value
	OutageTicks int64 // device-ticks silenced by scheduled outages
}

// NewInjector validates the configuration and builds the injector.
func NewInjector(cfg InjectorConfig) (*Injector, error) {
	if cfg.DropProb < 0 || cfg.DropProb > 1 || cfg.CorruptProb < 0 || cfg.CorruptProb > 1 ||
		cfg.DropProb+cfg.CorruptProb > 1 {
		return nil, fmt.Errorf("drop %v + corrupt %v: %w", cfg.DropProb, cfg.CorruptProb, ErrNetConfig)
	}
	for _, o := range cfg.Outages {
		if o.From < 0 || o.To <= o.From || o.Start < 0 || o.End <= o.Start {
			return nil, fmt.Errorf("outage %+v: %w", o, ErrNetConfig)
		}
	}
	return &Injector{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Stats returns the lifetime injection counters.
func (in *Injector) Stats() InjectStats { return in.st }

// inOutage reports whether (tick, dev) falls in a scheduled outage.
func (in *Injector) inOutage(tick, dev int) bool {
	for _, o := range in.cfg.Outages {
		if tick >= o.Start && tick < o.End && dev >= o.From && dev < o.To {
			return true
		}
	}
	return false
}

// Apply degrades one tick's delivery. It never mutates rows or the
// values they point to: a corrupted row is a copy. The returned row
// table and delivered mask are reused by the next Apply — consumers
// that keep them must copy. delivered[dev] is true exactly when the
// device's report arrived intact, so it is the mask an oracle monitor
// uses to replay the same tick from clean data (nil where false).
//
// Ticks must be applied in order: the probabilistic stream advances one
// draw per device per call.
func (in *Injector) Apply(tick int, rows [][]float64) (degraded [][]float64, delivered []bool) {
	n := len(rows)
	if cap(in.rows) < n {
		in.rows = make([][]float64, n)
		in.mask = make([]bool, n)
	}
	in.rows = in.rows[:n]
	in.mask = in.mask[:n]
	in.buf = in.buf[:0]
	for dev, row := range rows {
		p := in.rng.Float64()
		in.mask[dev] = false
		switch {
		case in.inOutage(tick, dev):
			in.rows[dev] = nil
			in.st.OutageTicks++
		case p < in.cfg.DropProb:
			in.rows[dev] = nil
			in.st.Dropped++
		case p < in.cfg.DropProb+in.cfg.CorruptProb && len(row) > 0:
			in.rows[dev] = in.corrupt(row, p)
			in.st.Corrupted++
		default:
			in.rows[dev] = row
			in.mask[dev] = true
		}
	}
	return in.rows, in.mask
}

// corrupt copies the row into the recycled arena and garbles one value,
// reusing the draw that selected the device so corruption needs no
// extra randomness.
func (in *Injector) corrupt(row []float64, p float64) []float64 {
	start := len(in.buf)
	in.buf = append(in.buf, row...)
	bad := in.buf[start : start+len(row) : start+len(row)]
	// p landed in [DropProb, DropProb+CorruptProb); rescale it to a
	// uniform draw that picks the victim service and corruption kind,
	// so corruption needs no extra randomness.
	u := (p - in.cfg.DropProb) / in.cfg.CorruptProb
	victim := int(u*float64(len(row))) % len(row)
	switch int(u*float64(3*len(row))) % 3 {
	case 0:
		bad[victim] = math.NaN()
	case 1:
		bad[victim] = math.Inf(1)
	default:
		bad[victim] = math.Inf(-1)
	}
	return bad
}
