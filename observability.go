package anomalia

import (
	"runtime"
	"time"

	"anomalia/internal/metrics"
)

// monitorMetrics is the Monitor's observability surface: every family
// it feeds per window, pre-registered at construction so the per-tick
// record path is pure atomics (no lock, no allocation — the
// instrumented quiet n=1M tick is gated at no added allocation over
// the plain one). The family names are documented in the package
// comment's Observability section and pinned by a doc-sync test.
type monitorMetrics struct {
	ticks            *metrics.Counter
	tickIngest       *metrics.Histogram
	tickDetect       *metrics.Histogram
	tickCharacterize *metrics.Histogram
	tickTotal        *metrics.Histogram

	abnormalWindows *metrics.Counter
	abnormalDevices *metrics.Histogram
	churnRatio      *metrics.Gauge

	dirBuilds         *metrics.Counter
	dirAdvancePatched *metrics.Counter
	dirAdvanceRebuilt *metrics.Counter

	healthLive        *metrics.Gauge
	healthStale       *metrics.Gauge
	healthQuarantined *metrics.Gauge
	healthQuarantines *metrics.Counter
	healthReadmits    *metrics.Counter
	healthHeld        *metrics.Counter
	healthDropped     *metrics.Counter
	healthFaulty      *metrics.Counter

	wireNetworked  *metrics.Counter
	wireDegraded   *metrics.Counter
	wireRetries    *metrics.Counter
	wireFailures   *metrics.Counter
	wireBreakerOps *metrics.Counter
	wireRejoins    *metrics.Counter
	wireBytesSent  *metrics.Counter
	wireBytesRecv  *metrics.Counter
	wireRoundTrips *metrics.Counter

	heapAlloc  *metrics.Gauge
	allocBytes *metrics.Counter
	mallocs    *metrics.Counter
	gcCycles   *metrics.Counter
	gcPauseNs  *metrics.Counter

	// ms is the reused ReadMemStats buffer (the struct is ~2 KB; a
	// per-window local would be free too, but reuse keeps the record
	// path obviously allocation-less), prevAbn the retained previous
	// abnormal set the churn ratio diffs against.
	ms      runtime.MemStats
	prevAbn []int
}

// newMonitorMetrics registers the Monitor's families on reg.
func newMonitorMetrics(reg *metrics.Registry) *monitorMetrics {
	phase := func(p string) *metrics.Histogram {
		return reg.Histogram("anomalia_tick_seconds",
			"Observe/ObservePartial latency by phase (ingest: snapshot acceptance and health dispatch; detect: the sharded detector walk; characterize: window characterization, abnormal windows only; total: the whole tick).",
			metrics.DefBuckets, metrics.Label{Name: "phase", Value: p})
	}
	return &monitorMetrics{
		ticks: reg.Counter("anomalia_ticks_total", "Snapshots observed (Observe and ObservePartial)."),

		tickIngest:       phase("ingest"),
		tickDetect:       phase("detect"),
		tickCharacterize: phase("characterize"),
		tickTotal:        phase("total"),

		abnormalWindows: reg.Counter("anomalia_abnormal_windows_total", "Observation windows containing at least one abnormal device."),
		abnormalDevices: reg.Histogram("anomalia_abnormal_devices",
			"Abnormal-set size per abnormal window.",
			[]float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6}),
		churnRatio: reg.Gauge("anomalia_abnormal_churn_ratio", "Symmetric-difference churn of the abnormal set between consecutive abnormal windows, over the union (0 = same set, 1 = disjoint)."),

		dirBuilds: reg.Counter("anomalia_directory_builds_total", "In-process directory builds (first abnormal window, or rebuild after a failed advance)."),
		dirAdvancePatched: reg.Counter("anomalia_directory_advances_total",
			"In-process directory advances by result.", metrics.Label{Name: "result", Value: "patched"}),
		dirAdvanceRebuilt: reg.Counter("anomalia_directory_advances_total",
			"In-process directory advances by result.", metrics.Label{Name: "result", Value: "rebuilt"}),

		healthLive:        reg.Gauge("anomalia_health_devices", "Fleet split by health state.", metrics.Label{Name: "state", Value: "live"}),
		healthStale:       reg.Gauge("anomalia_health_devices", "Fleet split by health state.", metrics.Label{Name: "state", Value: "stale"}),
		healthQuarantined: reg.Gauge("anomalia_health_devices", "Fleet split by health state.", metrics.Label{Name: "state", Value: "quarantined"}),
		healthQuarantines: reg.Counter("anomalia_health_quarantines_total", "Lifetime transitions into quarantine."),
		healthReadmits:    reg.Counter("anomalia_health_readmissions_total", "Lifetime re-admissions out of quarantine."),
		healthHeld:        reg.Counter("anomalia_health_held_ticks_total", "Device-ticks served from a held last-known value."),
		healthDropped:     reg.Counter("anomalia_health_dropped_reports_total", "Clean reports dropped while still quarantined."),
		healthFaulty:      reg.Counter("anomalia_health_faulty_ticks_total", "Device-ticks whose report was missing or malformed."),

		wireNetworked:  reg.Counter("anomalia_dir_windows_total", "Abnormal windows routed to the networked directory, by outcome.", metrics.Label{Name: "outcome", Value: "networked"}),
		wireDegraded:   reg.Counter("anomalia_dir_windows_total", "Abnormal windows routed to the networked directory, by outcome.", metrics.Label{Name: "outcome", Value: "degraded"}),
		wireRetries:    reg.Counter("anomalia_dir_retries_total", "Directory client retransmission attempts."),
		wireFailures:   reg.Counter("anomalia_dir_failures_total", "Directory requests abandoned after the retry budget."),
		wireBreakerOps: reg.Counter("anomalia_dir_breaker_opens_total", "Per-shard circuit-breaker opens."),
		wireRejoins:    reg.Counter("anomalia_dir_rejoins_total", "Half-open probes that brought a shard back."),
		wireBytesSent:  reg.Counter("anomalia_dir_bytes_total", "Measured directory wire traffic.", metrics.Label{Name: "direction", Value: "sent"}),
		wireBytesRecv:  reg.Counter("anomalia_dir_bytes_total", "Measured directory wire traffic.", metrics.Label{Name: "direction", Value: "received"}),
		wireRoundTrips: reg.Counter("anomalia_dir_round_trips_total", "Directory request/response round-trips."),

		heapAlloc:  reg.Gauge("anomalia_go_heap_alloc_bytes", "Live heap bytes, sampled per window."),
		allocBytes: reg.Counter("anomalia_go_alloc_bytes_total", "Cumulative heap bytes allocated, sampled per window."),
		mallocs:    reg.Counter("anomalia_go_mallocs_total", "Cumulative heap objects allocated, sampled per window."),
		gcCycles:   reg.Counter("anomalia_go_gc_cycles_total", "Completed GC cycles, sampled per window."),
		gcPauseNs:  reg.Counter("anomalia_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause, sampled per window."),
	}
}

// tickDone folds one committed tick into the registry: the phase and
// total latencies, the abnormal-set ledger, the health split, the
// networked-directory ledger and a GC/heap sample. Called once per
// committed tick, quiet or abnormal; everything here is an atomic
// store on a pre-registered series, so it adds no allocation to the
// tick. ingested is zero on the plain Observe path (which has no
// classify/dispatch phase); characterized is false on quiet windows,
// whose characterize phase would otherwise pollute the histogram with
// empty samples.
func (m *Monitor) tickDone(start, ingested, walked time.Time, abnormal []int, characterized bool) {
	mx := m.mx
	now := time.Now()
	mx.ticks.Inc()
	if !ingested.IsZero() {
		mx.tickIngest.Observe(ingested.Sub(start).Seconds())
		mx.tickDetect.Observe(walked.Sub(ingested).Seconds())
	} else {
		mx.tickDetect.Observe(walked.Sub(start).Seconds())
	}
	if characterized {
		mx.tickCharacterize.Observe(now.Sub(walked).Seconds())
	}
	mx.tickTotal.Observe(now.Sub(start).Seconds())
	if characterized && len(abnormal) > 0 {
		mx.abnormalWindows.Inc()
		mx.abnormalDevices.Observe(float64(len(abnormal)))
		mx.churnRatio.Set(churnRatio(mx.prevAbn, abnormal))
		mx.prevAbn = append(mx.prevAbn[:0], abnormal...)
	}
	if t := m.health.Load(); t != nil {
		live, stale, quar := t.Counts()
		st := t.Stats()
		mx.healthLive.Set(float64(live))
		mx.healthStale.Set(float64(stale))
		mx.healthQuarantined.Set(float64(quar))
		mx.healthQuarantines.Set(st.Quarantines)
		mx.healthReadmits.Set(st.Readmissions)
		mx.healthHeld.Set(st.HeldTicks)
		mx.healthDropped.Set(st.DroppedReports)
		mx.healthFaulty.Set(st.FaultyTicks)
	} else {
		mx.healthLive.Set(float64(m.devices))
	}
	if m.dirClient != nil {
		st := m.dirClient.Stats()
		mx.wireNetworked.Set(m.dirNetworked.Load())
		mx.wireDegraded.Set(m.dirDegraded.Load())
		mx.wireRetries.Set(st.Retries)
		mx.wireFailures.Set(st.Failures)
		mx.wireBreakerOps.Set(st.BreakerOpens)
		mx.wireRejoins.Set(st.Rejoins)
		mx.wireBytesSent.Set(st.BytesSent)
		mx.wireBytesRecv.Set(st.BytesReceived)
		mx.wireRoundTrips.Set(st.RoundTrips)
	}
	runtime.ReadMemStats(&mx.ms)
	mx.heapAlloc.Set(float64(mx.ms.HeapAlloc))
	mx.allocBytes.Set(int64(mx.ms.TotalAlloc))
	mx.mallocs.Set(int64(mx.ms.Mallocs))
	mx.gcCycles.Set(int64(mx.ms.NumGC))
	mx.gcPauseNs.Set(int64(mx.ms.PauseTotalNs))
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
