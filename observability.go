package anomalia

import (
	"time"

	"anomalia/internal/metrics"
)

// monitorMetrics is the Monitor's per-tick observability feed: the
// tick-local facts only the observing goroutine sees, pre-registered at
// construction so the per-tick record path is pure atomics (no lock, no
// allocation — the instrumented quiet n=1M tick is gated at no added
// allocation over the plain one). The health split, the wire ledger and
// the runtime sample already live behind scrape-safe snapshots, so
// newMonitorMetrics pulls them on scrape instead. The family names are
// documented in the package comment's Observability section and pinned
// by a doc-sync test.
type monitorMetrics struct {
	ticks            *metrics.Counter
	tickDetect       *metrics.Histogram
	tickCharacterize *metrics.Histogram
	tickTotal        *metrics.Histogram

	abnormalWindows *metrics.Counter
	abnormalDevices *metrics.Histogram
	churnRatio      *metrics.Gauge

	dirBuilds *metrics.Counter

	// prevAbn is the retained previous abnormal set the churn ratio
	// diffs against.
	prevAbn []int
}

// newMonitorMetrics registers m's families on reg, with one scrape hook
// that fills the health and wire families from m's stats snapshots.
func newMonitorMetrics(reg *metrics.Registry, m *Monitor) *monitorMetrics {
	phase := func(p string) *metrics.Histogram {
		return reg.Histogram("anomalia_tick_seconds",
			"Observe/ObservePartial latency by phase (detect: the sharded detector pass, row classification and health transitions included; characterize: window characterization, abnormal windows only; total: the whole tick).",
			metrics.DefBuckets, metrics.Label{Name: "phase", Value: p})
	}
	mx := &monitorMetrics{
		ticks: reg.Counter("anomalia_ticks_total", "Snapshots observed (Observe and ObservePartial)."),

		tickDetect:       phase("detect"),
		tickCharacterize: phase("characterize"),
		tickTotal:        phase("total"),

		abnormalWindows: reg.Counter("anomalia_abnormal_windows_total", "Observation windows containing at least one abnormal device."),
		abnormalDevices: reg.Histogram("anomalia_abnormal_devices",
			"Abnormal-set size per abnormal window.",
			[]float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6}),
		churnRatio: reg.Gauge("anomalia_abnormal_churn_ratio", "Symmetric-difference churn of the abnormal set between consecutive abnormal windows, over the union (0 = same set, 1 = disjoint)."),

		dirBuilds: reg.Counter("anomalia_directory_builds_total", "In-process directory builds: one per abnormal window decided by the in-process directory."),
	}

	state := func(s string) *metrics.Gauge {
		return reg.Gauge("anomalia_health_devices", "Fleet split by health state.", metrics.Label{Name: "state", Value: s})
	}
	live, stale, quarantined := state("live"), state("stale"), state("quarantined")
	quarantines := reg.Counter("anomalia_health_quarantines_total", "Lifetime transitions into quarantine.")
	readmits := reg.Counter("anomalia_health_readmissions_total", "Lifetime re-admissions out of quarantine.")
	held := reg.Counter("anomalia_health_held_ticks_total", "Device-ticks served from a held last-known value.")
	dropped := reg.Counter("anomalia_health_dropped_reports_total", "Clean reports dropped while still quarantined.")
	faulty := reg.Counter("anomalia_health_faulty_ticks_total", "Device-ticks whose report was missing or malformed.")

	outcome := func(o string) *metrics.Counter {
		return reg.Counter("anomalia_dir_windows_total", "Abnormal windows routed to the networked directory, by outcome.", metrics.Label{Name: "outcome", Value: o})
	}
	direction := func(d string) *metrics.Counter {
		return reg.Counter("anomalia_dir_bytes_total", "Measured directory wire traffic.", metrics.Label{Name: "direction", Value: d})
	}
	networked, degraded := outcome("networked"), outcome("degraded")
	retries := reg.Counter("anomalia_dir_retries_total", "Directory client retransmission attempts.")
	failures := reg.Counter("anomalia_dir_failures_total", "Directory requests abandoned after the retry budget.")
	breakerOpens := reg.Counter("anomalia_dir_breaker_opens_total", "Per-shard circuit-breaker opens.")
	rejoins := reg.Counter("anomalia_dir_rejoins_total", "Half-open probes that brought a shard back.")
	sent, received := direction("sent"), direction("received")
	roundTrips := reg.Counter("anomalia_dir_round_trips_total", "Directory request/response round-trips.")

	reg.OnScrape(func() {
		hs := m.HealthStats()
		live.Set(float64(hs.Live))
		stale.Set(float64(hs.Stale))
		quarantined.Set(float64(hs.Quarantined))
		quarantines.Set(hs.Quarantines)
		readmits.Set(hs.Readmissions)
		held.Set(hs.HeldTicks)
		dropped.Set(hs.DroppedReports)
		faulty.Set(hs.FaultyTicks)

		ds := m.DirStats()
		networked.Set(ds.Networked)
		degraded.Set(ds.Degraded)
		retries.Set(ds.Retries)
		failures.Set(ds.Failures)
		breakerOpens.Set(ds.BreakerOpens)
		rejoins.Set(ds.Rejoins)
		sent.Set(ds.BytesSent)
		received.Set(ds.BytesReceived)
		roundTrips.Set(ds.RoundTrips)
	})
	metrics.RegisterRuntime(reg)
	return mx
}

// tickDone folds one committed tick into the registry: the phase and
// total latencies and, on an abnormal window, the abnormal-set ledger.
// Called once per committed tick, quiet or abnormal; everything here is
// an atomic store on a pre-registered series, so it adds no allocation
// to the tick. The detect phase runs from start to walked: the bank's
// one sharded pass classifies each row and runs its health transition
// as it detects. abnormal is nil on quiet windows, whose characterize
// phase would otherwise pollute the histogram with empty samples.
func (m *Monitor) tickDone(start, walked time.Time, abnormal []int) {
	mx := m.mx
	now := time.Now()
	mx.ticks.Inc()
	mx.tickDetect.Observe(walked.Sub(start).Seconds())
	mx.tickTotal.Observe(now.Sub(start).Seconds())
	if len(abnormal) == 0 {
		return
	}
	mx.tickCharacterize.Observe(now.Sub(walked).Seconds())
	mx.abnormalWindows.Inc()
	mx.abnormalDevices.Observe(float64(len(abnormal)))
	mx.churnRatio.Set(churnRatio(mx.prevAbn, abnormal))
	mx.prevAbn = append(mx.prevAbn[:0], abnormal...)
}

// churnRatio is |prev Δ cur| / |prev ∪ cur| over two sorted id sets —
// 0 when the abnormal set repeated exactly, 1 when it was replaced
// wholesale. The first abnormal window scores 1 against the empty set.
func churnRatio(prev, cur []int) float64 {
	var diff, union int
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			i++
			diff++
		default:
			j++
			diff++
		}
		union++
	}
	diff += len(prev) - i + len(cur) - j
	union += len(prev) - i + len(cur) - j
	if union == 0 {
		return 0
	}
	return float64(diff) / float64(union)
}
