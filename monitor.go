package anomalia

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anomalia/internal/core"
	"anomalia/internal/detect"
	"anomalia/internal/dirnet"
	"anomalia/internal/dist"
	"anomalia/internal/health"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// Monitor couples per-device error detection with window-by-window
// characterization: feed it one QoS snapshot per discrete time and it
// returns, whenever some devices behave abnormally, the massive /
// isolated / unresolved verdicts for exactly those devices.
//
// Monitor is not safe for concurrent use, with one deliberate
// carve-out: the stats snapshots — Time, DeviceHealth, HealthStats,
// DirStats — and a metrics scrape (WithMetrics) may run on another
// goroutine concurrently with Observe/ObservePartial. They read
// atomics or take the stats mutex, so a scraper never tears a counter
// and never blocks Observe. A health snapshot taken during a partial
// tick waits for that tick's detector pass, which holds the mutex.
type Monitor struct {
	devices  int
	services int
	cfg      config
	// bank runs the detectors, stepped by one sharded pass per tick:
	// the default detectors — the factory's untrained Threshold
	// detectors with one shared delta — as a ThresholdBank of
	// struct-of-arrays slabs, any other factory output as a DeviceBank
	// of heap Devices. Both shard across WithIngestWorkers workers
	// (default GOMAXPROCS), and the merged abnormal set is
	// byte-identical to a serial walk.
	bank bank
	prev *space.State
	time atomic.Int64
	// spare recycles the state displaced by the previous Observe as the
	// next snapshot buffer (a double buffer: Observe fully overwrites
	// every row before reading it), and abnBuf recycles the abnormal-id
	// slice — characterization clones the ids it keeps, so both are free
	// for reuse once Observe returns.
	spare  *space.State
	abnBuf []int
	// dirClient replaces the in-process directory when WithDirectory is
	// configured: abnormal windows are decided over the wire by a shard
	// fleet, and a window the fleet cannot serve degrades to centralized
	// characterization (verdicts unchanged). dirWindows / dirNetworked /
	// dirDegraded are the lifetime window ledger behind DirStats —
	// atomics, because DirStats may race a scraper against the
	// observing goroutine.
	dirClient    *dirnet.Client
	dirWindows   atomic.Int64
	dirNetworked atomic.Int64
	dirDegraded  atomic.Int64
	// health is the per-device state machine of the degraded ingest path
	// (ObservePartial), created on the first partial tick so Observe-only
	// monitors pay nothing for it; cleanBuf is the recycled per-tick
	// classification mask the bank's Step writes. The pointer is atomic
	// so a concurrent stats snapshot sees either no tracker or a fully
	// built one; statsMu serializes the tracker's mutations against
	// HealthStats/DeviceHealth readers. Every partial tick, on either
	// bank, runs the health transitions inside its sharded pass, and the
	// whole pass holds statsMu: a reader never sees a torn state, but a
	// scrape may wait for up to one pass. Reset takes the mutex too.
	health   atomic.Pointer[health.Tracker]
	statsMu  sync.Mutex
	cleanBuf []bool
	// mx is the per-tick metrics feed (WithMetrics): latencies, the
	// abnormal ledger and directory builds. The health, wire and
	// runtime families are filled on scrape. nil when the monitor is
	// not instrumented — every record site is gated on that, so the
	// uninstrumented hot path pays one predictable branch.
	mx *monitorMetrics
}

// bank is the fleet's detector pass: detect.ThresholdBank or
// detect.DeviceBank.
type bank interface {
	Step(rows [][]float64, prev, cur *space.State, t *health.Tracker, clean []bool, out []int) ([]int, int)
	Commit()
	Reject(samples [][]float64, clean []bool) error
	Reset()
}

// NewMonitor builds a monitor for a fleet of devices, each consuming the
// given number of services. Options configure the characterization
// parameters and the per-service detector factory (default: threshold
// detector with delta 0.05).
func NewMonitor(devices, services int, opts ...Option) (*Monitor, error) {
	if devices < 2 {
		return nil, fmt.Errorf("%d devices: %w", devices, ErrInvalidInput)
	}
	if services < space.MinDim || services > space.MaxDim {
		return nil, fmt.Errorf("%d services: %w", services, ErrInvalidInput)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := motion.ValidateRadius(cfg.radius); err != nil {
		return nil, err
	}
	if cfg.tau < 1 {
		return nil, fmt.Errorf("tau = %d: %w", cfg.tau, ErrInvalidInput)
	}
	if err := cfg.health.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	factory := cfg.factory
	if factory == nil {
		factory = func(int, int) (Detector, error) {
			return NewThresholdDetector(0.05)
		}
	}
	m := &Monitor{
		devices:  devices,
		services: services,
		cfg:      cfg,
		cleanBuf: make([]bool, devices),
	}
	if cfg.directory != nil {
		client, err := dirnet.NewClient(dirnet.Config(*cfg.directory))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
		}
		m.dirClient = client
	}
	dets := make([]*detect.Device, devices)
	for dev := range dets {
		composite, err := detect.NewDevice(services, func(svc int) (detect.Detector, error) {
			d, err := factory(dev, svc)
			if err != nil {
				return nil, err
			}
			if d == nil {
				return nil, fmt.Errorf("device %d service %d: nil detector: %w", dev, svc, ErrInvalidInput)
			}
			return d, nil
		})
		if err != nil {
			return nil, fmt.Errorf("building detectors for device %d: %w", dev, err)
		}
		dets[dev] = composite
	}
	if tb := detect.NewThresholdBank(dets, cfg.ingestWorkers); tb != nil {
		m.bank = tb
	} else {
		m.bank = detect.NewDeviceBank(dets, cfg.ingestWorkers)
	}
	// Registered last: the scrape hook reads the monitor from another
	// goroutine, so it must see the monitor fully built.
	if cfg.metrics != nil {
		m.mx = newMonitorMetrics(cfg.metrics, m)
	}
	return m, nil
}

// Time returns the number of snapshots observed so far.
func (m *Monitor) Time() int { return int(m.time.Load()) }

// Observe consumes the snapshot of one discrete time: one row per device,
// one QoS value in [0,1] per service. It returns nil when no device
// behaved abnormally over the window (including the first snapshot, which
// only trains the detectors); otherwise it returns the characterization
// of the abnormal set.
//
// Row classification and the per-device detector pass are sharded
// across WithIngestWorkers workers; the abnormal set is identical to a
// serial walk whatever the count.
//
// Error behavior: a rejected snapshot — wrong row count or width, or a
// non-finite QoS value (NaN would pass an interval test and poison
// detector state, so it is rejected by name) — leaves the monitor
// exactly as it was: no detector consumed a sample, the clock did not
// advance, and the recycled buffers are intact. An error from the
// characterization of an accepted snapshot reports a consumed
// observation: the detectors have already folded the snapshot in, so
// the clock and the previous-state buffer advance with them, the
// displaced state is recycled, and the next Observe proceeds cleanly.
func (m *Monitor) Observe(samples [][]float64) (*Outcome, error) {
	return m.tick(samples, true)
}

// ObservePartial consumes one possibly-degraded snapshot: one row per
// device like Observe, but a row may be nil (no report arrived this
// tick) or malformed — wrong width, or carrying NaN/±Inf — and instead
// of rejecting the whole tick, the monitor folds every device's report
// quality into its health state machine (internal/health, configured
// by WithHealthPolicy) and characterizes the live subpopulation:
//
//   - a live device's clean report is consumed exactly as Observe
//     would consume it;
//   - a device missing or malformed for at most HoldTicks consecutive
//     ticks is stale: its last-known value is held, so its detectors
//     and the window's population see it at its last observed
//     position, and one clean report returns it to live;
//   - past HoldTicks the device is quarantined: excluded from the
//     window's population — no detector update, never abnormal, its
//     state slot parked at its last position (the origin if it never
//     reported) — until ReadmitTicks consecutive clean reports
//     re-admit it. The re-admitting report is consumed; earlier
//     reports in the run are dropped, so one lucky packet cannot
//     re-admit a flapping device.
//
// Malformed and missing are deliberately indistinguishable to the
// state machine: neither carries a usable measurement, and collapsing
// them makes a degraded stream reproducible against an oracle fed only
// the delivered clean subset. A fully clean snapshot over an all-live
// fleet is consumed exactly as Observe consumes it — same recycled
// buffers, same verdicts.
//
// Membership churn flows through: quarantined devices leave the
// abnormal set (and so the distributed directory's index) and
// re-admitted devices rejoin it on the window their detectors next
// fire. DeviceHealth and HealthStats expose the current split.
//
// Error behavior: a snapshot with the wrong row count is rejected with
// the monitor untouched, exactly as Observe rejects it. There is no
// per-value rejection — malformed rows are the input this path exists
// to absorb — and the detector pass cannot fail: a Detector's Update
// returns no error, and every row it is fed is clean or a held
// position. What can still fail is the characterization of an abnormal
// window, which reports a consumed observation as Observe's does: the
// detectors, the health state, the clock and the previous-state buffer
// have all advanced, and the next tick proceeds cleanly. Re-feeding
// the same snapshot would charge the health machine twice; treat the
// tick as lost instead.
func (m *Monitor) ObservePartial(samples [][]float64) (*Outcome, error) {
	return m.tick(samples, false)
}

// tracker returns the health state machine of the partial ingest
// policy, built on the first partial tick.
func (m *Monitor) tracker() (*health.Tracker, error) {
	if t := m.health.Load(); t != nil {
		return t, nil
	}
	t, err := health.New(m.devices, m.cfg.health)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	m.health.Store(t)
	return t, nil
}

// tick is the one body of Observe (strict) and ObservePartial: ingest
// and detect by policy into the current state with one bank step, then
// the tick commits, and an abnormal window is characterized.
func (m *Monitor) tick(samples [][]float64, strict bool) (*Outcome, error) {
	if len(samples) != m.devices {
		return nil, fmt.Errorf("snapshot has %d rows, want %d: %w", len(samples), m.devices, ErrInvalidInput)
	}
	var start time.Time
	if m.mx != nil {
		start = time.Now()
	}
	cur := m.spare
	m.spare = nil
	if cur == nil {
		var err error
		if cur, err = space.NewState(m.devices, m.services); err != nil {
			return nil, err
		}
	}
	abnormal, err := m.step(samples, cur, strict)
	m.abnBuf = abnormal
	if err != nil {
		// A rejection consumed nothing: keep the double buffer intact.
		m.spare = cur
		return nil, err
	}
	var walked time.Time
	if m.mx != nil {
		walked = time.Now()
	}
	// The displaced snapshot is dead from here on whatever happens next
	// — outcomes carry device ids, never state references, and the
	// characterization below only reads it — so recycle it now; that
	// keeps the double buffer intact on every error path too.
	prev := m.prev
	m.prev, m.spare = cur, prev
	m.time.Add(1)
	if prev == nil || len(abnormal) == 0 {
		if m.mx != nil {
			m.tickDone(start, walked, nil)
		}
		return nil, nil
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		return nil, err
	}
	out, err := m.characterizeWindow(pair, abnormal)
	if m.mx != nil {
		m.tickDone(start, walked, abnormal)
	}
	return out, err
}

// step ingests one snapshot into the bank with one Step, and commits
// it unless the strict policy rejects it on the lowest unclean row. A
// partial tick hands the Step the health tracker, so every device's
// health transition runs inside the sharded pass and picks what it
// detects on; the pass holds statsMu. A partial tick that found every
// row clean over a fleet all-live at its start also charges the fleet
// one consumed report with ConsumeAll.
func (m *Monitor) step(samples [][]float64, cur *space.State, strict bool) ([]int, error) {
	var tracker *health.Tracker
	if !strict {
		var err error
		if tracker, err = m.tracker(); err != nil {
			return m.abnBuf, err
		}
		m.statsMu.Lock()
		defer m.statsMu.Unlock()
	}
	allLive := tracker != nil && tracker.AllLive()
	abnormal, nClean := m.bank.Step(samples, m.prev, cur, tracker, m.cleanBuf, m.abnBuf)
	if strict && nClean < m.devices {
		return abnormal, fmt.Errorf("%w: %w", ErrInvalidInput, m.bank.Reject(samples, m.cleanBuf))
	}
	if allLive && nClean == m.devices {
		tracker.ConsumeAll()
	}
	m.bank.Commit()
	return abnormal, nil
}

// DeviceHealth returns device dev's current health state. Devices are
// live until a partial tick impairs them; a monitor fed only through
// Observe is always all-live.
func (m *Monitor) DeviceHealth(dev int) (HealthState, error) {
	if dev < 0 || dev >= m.devices {
		return HealthLive, fmt.Errorf("device %d of %d: %w", dev, m.devices, ErrInvalidInput)
	}
	t := m.health.Load()
	if t == nil {
		return HealthLive, nil
	}
	m.statsMu.Lock()
	st := t.State(dev)
	m.statsMu.Unlock()
	switch st {
	case health.Stale:
		return HealthStale, nil
	case health.Quarantined:
		return HealthQuarantined, nil
	default:
		return HealthLive, nil
	}
}

// HealthStats returns the current population split and the lifetime
// degraded-ingestion counters.
func (m *Monitor) HealthStats() HealthStats {
	t := m.health.Load()
	if t == nil {
		return HealthStats{Live: m.devices}
	}
	m.statsMu.Lock()
	live, stale, quar := t.Counts()
	st := t.Stats()
	m.statsMu.Unlock()
	return HealthStats{
		Live:           live,
		Stale:          stale,
		Quarantined:    quar,
		Quarantines:    st.Quarantines,
		Readmissions:   st.Readmissions,
		HeldTicks:      st.HeldTicks,
		DroppedReports: st.DroppedReports,
		FaultyTicks:    st.FaultyTicks,
	}
}

// characterizeWindow decides one abnormal window; it is the one
// decision path of every deployment model. Centralized, it runs
// core.New and CharacterizeAll. Distributed in-process, it indexes the
// window in a fresh directory service and decides on it: a_k(j) flags a
// change between windows, so consecutive abnormal sets barely overlap
// and nothing is worth keeping from one window to the next. With
// WithDirectory the directory lives behind the wire instead: the
// client syncs the shard fleet and merges its decision slices, and any
// failure past the deadline/retry/breaker budget degrades this one
// window to the centralized branch — same verdicts, one DirStats
// degradation — so shard unavailability never surfaces as an Observe
// error.
func (m *Monitor) characterizeWindow(pair *motion.Pair, abnormal []int) (*Outcome, error) {
	cfg := m.cfg.core()
	if m.cfg.distributed {
		// Validate the characterization config first, so a bad radius or
		// tau surfaces as the error the centralized path reports, not as
		// a grid-parameter complaint from the directory build.
		if _, err := core.New(pair, nil, cfg); err != nil {
			return nil, err
		}
		if m.dirClient == nil {
			dir, err := dist.NewDirectory(pair, abnormal, m.cfg.radius)
			if err != nil {
				return nil, err
			}
			if m.mx != nil {
				m.mx.dirBuilds.Inc()
			}
			decisions, total, err := dist.DecideAll(dir, cfg)
			if err != nil {
				return nil, err
			}
			return outcomeFromDecisions(decisions, total), nil
		}
		m.dirWindows.Add(1)
		decisions, total, err := m.dirClient.DecideWindow(pair, abnormal, cfg)
		if err == nil {
			m.dirNetworked.Add(1)
			return outcomeFromDecisions(decisions, total), nil
		}
		// Whatever failed — unreachable shards, a mid-window crash, a
		// deterministic server rejection — the centralized path is the
		// oracle the networked one is pinned to, so fall back for this
		// window; the client re-syncs shards on the next abnormal window.
		m.dirDegraded.Add(1)
	}
	char, err := core.New(pair, abnormal, cfg)
	if err != nil {
		return nil, err
	}
	results, err := char.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	out := &Outcome{Reports: make([]Report, 0, len(results))}
	for _, res := range results {
		out.addReport(res)
	}
	return out, nil
}

// DirStats returns the networked directory's window ledger and
// lifetime wire counters. Monitors without WithDirectory return the
// zero value.
func (m *Monitor) DirStats() DirStats {
	if m.dirClient == nil {
		return DirStats{}
	}
	st := m.dirClient.Stats()
	return DirStats{
		Windows:       m.dirWindows.Load(),
		Networked:     m.dirNetworked.Load(),
		Degraded:      m.dirDegraded.Load(),
		Retries:       st.Retries,
		Failures:      st.Failures,
		BreakerOpens:  st.BreakerOpens,
		Rejoins:       st.Rejoins,
		BytesSent:     st.BytesSent,
		BytesReceived: st.BytesReceived,
		RoundTrips:    st.RoundTrips,
	}
}

// Reset clears the detectors, the snapshot history, the per-device
// health state and the churn baseline of the metrics feed, keeping the
// configuration. A networked directory client drops its connections
// and forgets shard sync and breaker state, but the lifetime DirStats
// counters survive — the wire ledger spans resets the way a process's
// traffic counters span reconnects.
func (m *Monitor) Reset() {
	m.bank.Reset()
	m.prev = nil
	m.spare = nil
	m.time.Store(0)
	if m.mx != nil {
		// The next abnormal window's churn scores against the empty set.
		m.mx.prevAbn = m.mx.prevAbn[:0]
	}
	if m.dirClient != nil {
		m.dirClient.Reset()
	}
	if t := m.health.Load(); t != nil {
		m.statsMu.Lock()
		t.Reset()
		m.statsMu.Unlock()
	}
}
