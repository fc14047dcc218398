// Package health tracks the per-device report health that degraded-mode
// ingestion is built on. The paper's fleet is millions of autonomous
// devices self-reporting QoS; at that scale a snapshot is never complete
// — devices drop out, lag and misreport as a matter of course — and an
// all-or-nothing ingest path lets one straggler stall the whole fleet's
// characterization. The tracker keeps a small state machine per device:
//
//	live ──fault──► stale ──(> HoldTicks faults)──► quarantined
//	 ▲               │                                  │
//	 └──clean────────┘        (ReadmitTicks clean)──────┘
//
// A live device's reports are consumed as they arrive. A device whose
// report is missing or malformed turns stale: for up to HoldTicks
// consecutive faulty ticks its last-known value is held — the device
// stays in the window's population at its last observed position — and
// a single clean report returns it to live. Past HoldTicks the device
// is quarantined: excluded from the window's population (no detector
// update, never abnormal) until ReadmitTicks consecutive clean reports
// re-admit it; the re-admitting report itself is consumed, earlier ones
// in the run are dropped. The disposition of every report is a pure
// function of the per-device clean/faulty history, which is what makes
// a degraded stream reproducible against an oracle fed only the clean
// subset.
//
// A Tracker is not safe for concurrent use, except that Transition and
// Shard may run on disjoint devices at once (see Transition); it is
// owned by the monitor that owns the ingest clock.
package health

import (
	"errors"
	"fmt"
)

// ErrPolicy is returned for invalid policies or tracker geometries.
var ErrPolicy = errors.New("health: invalid configuration")

// State is a device's position in the health state machine.
type State uint8

// Health states. The zero value is Live so a fresh tracker is all-live.
const (
	// Live: reporting cleanly; reports are consumed as they arrive.
	Live State = iota
	// Stale: missing or malformed for at most HoldTicks consecutive
	// ticks; the device's last-known value is held in its place.
	Stale
	// Quarantined: faulty past HoldTicks; excluded from the window's
	// population until ReadmitTicks consecutive clean reports.
	Quarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case Live:
		return "live"
	case Stale:
		return "stale"
	case Quarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// Disposition is what the ingest path should do with one device's slot
// of the current tick.
type Disposition uint8

const (
	// Consume: feed the delivered report to the device's detectors.
	Consume Disposition = iota
	// Hold: no usable report; feed the device's last-known value and
	// keep it in the window's population.
	Hold
	// Skip: exclude the device from this window — no detector update,
	// the device cannot be abnormal, its position stays parked.
	Skip
)

// Policy configures the state machine.
type Policy struct {
	// HoldTicks is K: how many consecutive missing/malformed ticks a
	// device's last-known value is held before it is quarantined. 0
	// quarantines on the first faulty tick.
	HoldTicks int
	// ReadmitTicks is R: how many consecutive clean reports a
	// quarantined device needs before it rejoins the population. The
	// R-th report is consumed; at least 1.
	ReadmitTicks int
}

// DefaultPolicy holds a device for 2 ticks and re-admits after 2
// consecutive clean reports.
func DefaultPolicy() Policy { return Policy{HoldTicks: 2, ReadmitTicks: 2} }

// Validate rejects nonsensical policies.
func (p Policy) Validate() error {
	if p.HoldTicks < 0 {
		return fmt.Errorf("hold ticks %d: %w", p.HoldTicks, ErrPolicy)
	}
	if p.ReadmitTicks < 1 {
		return fmt.Errorf("readmit ticks %d: %w", p.ReadmitTicks, ErrPolicy)
	}
	return nil
}

// Stats are the tracker's lifetime counters.
type Stats struct {
	// Quarantines counts live/stale → quarantined transitions.
	Quarantines int64
	// Readmissions counts quarantined → live transitions.
	Readmissions int64
	// HeldTicks counts device-ticks served from a held last-known value.
	HeldTicks int64
	// DroppedReports counts clean reports dropped because the device was
	// still quarantined (the first ReadmitTicks-1 of each re-admission
	// run, plus runs that broke).
	DroppedReports int64
	// FaultyTicks counts device-ticks whose report was missing or
	// malformed.
	FaultyTicks int64
}

// Tracker is the per-device health state of one monitored fleet.
type Tracker struct {
	policy Policy
	states []State
	// run is the device's current streak: consecutive faulty ticks for
	// live/stale devices, consecutive clean reports for quarantined ones.
	run []int32
	// seen marks devices that have delivered at least one consumed
	// report — only they have a last-known value to hold, and only
	// their detectors are trained: the detector bank reads the marks as
	// its first-sample rule. allSeen is the whole-fleet form, set by
	// ConsumeAll: a fully-clean tick over an all-live fleet consumes
	// every device's report, so one such tick gives the whole fleet a
	// last-known value at once (seen is monotone until Reset, so a
	// single flag is exact).
	seen    []bool
	allSeen bool
	// impaired counts devices not Live, so an all-clean tick over an
	// all-live fleet can skip per-device bookkeeping entirely.
	impaired int
	stale    int
	quar     int
	stats    Stats
}

// New builds a tracker for n devices, all live.
func New(n int, p Policy) (*Tracker, error) {
	if n < 1 {
		return nil, fmt.Errorf("%d devices: %w", n, ErrPolicy)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		policy: p,
		states: make([]State, n),
		run:    make([]int32, n),
		seen:   make([]bool, n),
	}, nil
}

// Len returns the fleet size.
func (t *Tracker) Len() int { return len(t.states) }

// Policy returns the configured policy.
func (t *Tracker) Policy() Policy { return t.policy }

// AllLive reports whether every device is live — the fast-path guard:
// when it holds and the tick is fully clean, every disposition is
// Consume and Report need not run at all.
func (t *Tracker) AllLive() bool { return t.impaired == 0 }

// State returns device dev's current health state.
func (t *Tracker) State(dev int) State { return t.states[dev] }

// Counts returns the current population split.
func (t *Tracker) Counts() (live, stale, quarantined int) {
	return len(t.states) - t.stale - t.quar, t.stale, t.quar
}

// Stats returns the lifetime counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Report folds one device's tick into the state machine — clean is
// whether a well-formed report arrived — and returns what the ingest
// path should do with the device's slot. Exactly one Report per device
// per tick.
func (t *Tracker) Report(dev int, clean bool) Disposition {
	var d Delta
	disp := t.Transition(dev, clean, &d)
	t.Apply(&d)
	return disp
}

// Delta accumulates the fleet-wide counter changes of a run of
// Transition calls until Apply folds them into the tracker. The zero
// value is an empty delta.
type Delta struct {
	impaired, stale, quar int
	stats                 Stats
}

// Transition is Report for a sharded pass: it advances device dev's
// state, streak and last-known-value mark — the device's own slots,
// nothing else — and adds its counter changes to d instead of the
// tracker's counters. Goroutines may run Transition concurrently over
// disjoint device sets, each with its own delta; the counters, Counts,
// Stats and AllLive read stale until every delta is applied.
func (t *Tracker) Transition(dev int, clean bool, d *Delta) Disposition {
	if clean && t.states[dev] == Live {
		// The common case, small enough to inline into a caller's pass.
		t.seen[dev] = true
		return Consume
	}
	return t.transition(dev, clean, d)
}

// Shard returns what a sharded pass over devices [lo, hi) reads
// without Transition: the devices' states, nil when every device is
// live, and their last-known marks, nil once ConsumeAll has marked the
// whole fleet. A clean report of a live, marked device folds into no
// change at all, so such a pass may take it without Transition. Like
// Transition, Shard may run on disjoint ranges at once; what it
// returns holds for the pass until its deltas are applied.
func (t *Tracker) Shard(lo, hi int) (states []State, seen []bool) {
	if t.impaired != 0 {
		states = t.states[lo:hi:hi]
	}
	if !t.allSeen {
		seen = t.seen[lo:hi:hi]
	}
	return states, seen
}

// transition is Transition for a fault or an impaired device.
func (t *Tracker) transition(dev int, clean bool, d *Delta) Disposition {
	if clean {
		return t.reportCleanImpaired(dev, d)
	}
	return t.reportFault(dev, d)
}

// Apply folds a delta into the tracker's counters. Deltas commute, so
// the shards of one pass may be applied in any order.
func (t *Tracker) Apply(d *Delta) {
	t.impaired += d.impaired
	t.stale += d.stale
	t.quar += d.quar
	t.stats.Quarantines += d.stats.Quarantines
	t.stats.Readmissions += d.stats.Readmissions
	t.stats.HeldTicks += d.stats.HeldTicks
	t.stats.DroppedReports += d.stats.DroppedReports
	t.stats.FaultyTicks += d.stats.FaultyTicks
}

// ConsumeAll records a tick that gave every device a last-known value:
// a fully-clean tick over a fleet all live at its start (the caller's
// guard; no state transition can be pending). After one such tick a
// device's first fault is held, not skipped. It touches no state,
// streak or counter.
func (t *Tracker) ConsumeAll() { t.allSeen = true }

// reportCleanImpaired folds a clean report of a stale or quarantined
// device.
func (t *Tracker) reportCleanImpaired(dev int, d *Delta) Disposition {
	switch t.states[dev] {
	case Stale:
		t.states[dev] = Live
		t.run[dev] = 0
		d.stale--
		d.impaired--
		t.seen[dev] = true
		return Consume
	default: // Quarantined
		t.run[dev]++
		if int(t.run[dev]) >= t.policy.ReadmitTicks {
			t.states[dev] = Live
			t.run[dev] = 0
			d.quar--
			d.impaired--
			d.stats.Readmissions++
			t.seen[dev] = true
			return Consume
		}
		d.stats.DroppedReports++
		return Skip
	}
}

func (t *Tracker) reportFault(dev int, d *Delta) Disposition {
	d.stats.FaultyTicks++
	switch t.states[dev] {
	case Live:
		d.impaired++
		if t.policy.HoldTicks == 0 {
			t.states[dev] = Quarantined
			t.run[dev] = 0
			d.quar++
			d.stats.Quarantines++
			return Skip
		}
		t.states[dev] = Stale
		t.run[dev] = 1
		d.stale++
	case Stale:
		t.run[dev]++
		if int(t.run[dev]) > t.policy.HoldTicks {
			t.states[dev] = Quarantined
			t.run[dev] = 0
			d.stale--
			d.quar++
			d.stats.Quarantines++
			return Skip
		}
	default: // Quarantined: a faulty tick breaks any re-admission run.
		t.run[dev] = 0
		return Skip
	}
	// Stale with a last-known value holds it; a device that has never
	// delivered a report has nothing to hold and sits the window out
	// (its quarantine countdown still advances above).
	if !t.allSeen && !t.seen[dev] {
		return Skip
	}
	d.stats.HeldTicks++
	return Hold
}

// Reset returns every device to live and zeroes the counters.
func (t *Tracker) Reset() {
	clear(t.states)
	clear(t.run)
	clear(t.seen)
	t.allSeen = false
	t.impaired = 0
	t.stale = 0
	t.quar = 0
	t.stats = Stats{}
}
