package anomalia

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"anomalia/internal/detect"
	"anomalia/internal/health"
	"anomalia/internal/space"
)

// degradedRow marks one device's report for a test stream.
type degradedRow struct {
	missing bool    // nil row
	badNaN  bool    // NaN coordinate
	badInf  bool    // +Inf coordinate
	short   bool    // wrong width
	value   float64 // delivered QoS when present
}

// partialSnapshot renders one tick: the degraded view the monitor sees
// and the masked-clean view an oracle sees (the delivered clean subset,
// nil everywhere a report was missing or malformed).
func partialSnapshot(n int, base float64, rows map[int]degradedRow) (degraded, masked [][]float64) {
	degraded = make([][]float64, n)
	masked = make([][]float64, n)
	for j := 0; j < n; j++ {
		r, ok := rows[j]
		if !ok {
			degraded[j] = []float64{base}
			masked[j] = []float64{base}
			continue
		}
		switch {
		case r.missing:
		case r.badNaN:
			degraded[j] = []float64{math.NaN()}
		case r.badInf:
			degraded[j] = []float64{math.Inf(1)}
		case r.short:
			degraded[j] = []float64{}
		default:
			degraded[j] = []float64{r.value}
			masked[j] = []float64{r.value}
		}
	}
	return degraded, masked
}

// TestObservePartialCleanMatchesObserve: on a fully clean stream,
// ObservePartial must be Observe — identical outcomes tick for tick,
// health all-live throughout, serial and sharded.
func TestObservePartialCleanMatchesObserve(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name    string
		n       int
		workers int
	}{
		{"serial", 64, 1},
		{"sharded", 8192, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			full, err := NewMonitor(tc.n, 1, WithIngestWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			part, err := NewMonitor(tc.n, 1, WithIngestWorkers(tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			stream := []map[int]float64{nil, nil, {0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49, 9: 0.2}, nil}
			for tick, overrides := range stream {
				snap := fleetSnapshot(tc.n, 0.95, overrides)
				want, err := full.Observe(snap)
				if err != nil {
					t.Fatal(err)
				}
				got, err := part.ObservePartial(snap)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tick %d: partial outcome diverges from Observe:\n%+v\nvs\n%+v", tick, got, want)
				}
			}
			hs := part.HealthStats()
			if hs.Live != tc.n || hs.Stale != 0 || hs.Quarantined != 0 || hs.FaultyTicks != 0 {
				t.Fatalf("clean stream left health %+v", hs)
			}
		})
	}
}

// TestObservePartialOracleParity: a degraded stream (missing rows, NaN
// and Inf corruption, wrong widths) must characterize tick for tick
// identically to an oracle monitor fed only the delivered clean subset
// — malformed and missing are the same event, and corruption never
// leaks a value into detector or space state. Run centralized and
// distributed.
func TestObservePartialOracleParity(t *testing.T) {
	t.Parallel()

	for _, distributed := range []bool{false, true} {
		distributed := distributed
		name := "centralized"
		if distributed {
			name = "distributed"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 64
			opts := []Option{
				WithRadius(0.03), WithTau(3),
				WithHealthPolicy(HealthPolicy{HoldTicks: 1, ReadmitTicks: 2}),
				WithDistributed(distributed),
			}
			mon, err := NewMonitor(n, 1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewMonitor(n, 1, opts...)
			if err != nil {
				t.Fatal(err)
			}

			// A stream that exercises every degradation while a massive
			// event (devices 0-5) and an isolated fault (device 40) play
			// out; device 7 flaps through hold, quarantine, re-admission.
			stream := []map[int]degradedRow{
				nil,
				{7: {missing: true}, 12: {badNaN: true}},
				{7: {badInf: true}, 12: {value: 0.95}},
				{0: {value: 0.5}, 1: {value: 0.5}, 2: {value: 0.51}, 3: {value: 0.49},
					4: {value: 0.5}, 5: {value: 0.5}, 40: {value: 0.2},
					7: {short: true}, 20: {missing: true}},
				{7: {value: 0.95}, 20: {badNaN: true}},
				{7: {value: 0.95}, 20: {value: 0.95}},
				{0: {value: 0.95}, 1: {value: 0.95}, 40: {value: 0.95}},
			}
			abnormalTicks := 0
			for tick, rows := range stream {
				degraded, masked := partialSnapshot(n, 0.95, rows)
				got, err := mon.ObservePartial(degraded)
				if err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				want, err := oracle.ObservePartial(masked)
				if err != nil {
					t.Fatalf("tick %d oracle: %v", tick, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tick %d: degraded outcome diverges from oracle:\n%+v\nvs\n%+v", tick, got, want)
				}
				if got != nil {
					abnormalTicks++
				}
			}
			if abnormalTicks == 0 {
				t.Fatal("stream produced no abnormal window; parity was vacuous")
			}
			if !reflect.DeepEqual(mon.HealthStats(), oracle.HealthStats()) {
				t.Fatalf("health diverges: %+v vs %+v", mon.HealthStats(), oracle.HealthStats())
			}
			if hs := mon.HealthStats(); hs.Quarantines == 0 || hs.Readmissions == 0 || hs.HeldTicks == 0 {
				t.Fatalf("stream exercised no quarantine/readmission/hold: %+v", hs)
			}
		})
	}
}

// TestObservePartialHoldKeepsDeviceInPopulation: a stale device is
// characterized at its held value — the window must decide exactly as
// if the device had delivered its last-known report again.
func TestObservePartialHoldKeepsDeviceInPopulation(t *testing.T) {
	t.Parallel()

	const n = 16
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 3, ReadmitTicks: 1}))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewMonitor(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := fleetSnapshot(n, 0.95, nil)
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Observe(clean); err != nil {
		t.Fatal(err)
	}

	// Mass event with device 6's report lost: held at 0.95.
	event := map[int]float64{0: 0.5, 1: 0.5, 2: 0.51, 3: 0.49}
	degraded := fleetSnapshot(n, 0.95, event)
	degraded[6] = nil
	got, err := mon.ObservePartial(degraded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Observe(fleetSnapshot(n, 0.95, event))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("held-device window diverges from explicit re-delivery:\n%+v\nvs\n%+v", got, want)
	}
	if st, _ := mon.DeviceHealth(6); st != HealthStale {
		t.Fatalf("device 6 health %v, want stale", st)
	}
	if st, _ := mon.DeviceHealth(0); st != HealthLive {
		t.Fatalf("device 0 health %v, want live", st)
	}
	// The clean tick above ran over an all-live fleet — a Consume
	// transition per device inside the bank's pass, then ConsumeAll —
	// and must count as a consumed report for every device, so device
	// 6's first fault was genuinely held (HeldTicks charged), not
	// silently skipped out of the population.
	if hs := mon.HealthStats(); hs.HeldTicks != 1 || hs.FaultyTicks != 1 {
		t.Fatalf("fast-path ticks did not seed hold semantics: %+v", hs)
	}
}

// TestObservePartialQuarantineExcludesDevice: past HoldTicks a device
// leaves the window's population — even if its detectors would have
// fired, it cannot appear in the abnormal set — and after ReadmitTicks
// clean reports it rejoins.
func TestObservePartialQuarantineExcludesDevice(t *testing.T) {
	t.Parallel()

	const n = 16
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 0, ReadmitTicks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	clean := fleetSnapshot(n, 0.95, nil)
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}

	// Device 9's report goes missing: quarantined immediately (K=0).
	degraded := fleetSnapshot(n, 0.95, nil)
	degraded[9] = nil
	if _, err := mon.ObservePartial(degraded); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(9); st != HealthQuarantined {
		t.Fatalf("device 9 health %v, want quarantined", st)
	}

	// A drop that would fire 9's detector arrives — but 9 is not in the
	// population, so only the isolated device 2 is reported.
	event := fleetSnapshot(n, 0.95, map[int]float64{2: 0.2, 9: 0.2})
	out, err := mon.ObservePartial(event)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("window with an isolated fault produced no outcome")
	}
	for _, rep := range out.Reports {
		if rep.Device == 9 {
			t.Fatalf("quarantined device 9 appeared in reports: %+v", out.Reports)
		}
	}
	if len(out.Isolated) != 1 || out.Isolated[0] != 2 {
		t.Fatalf("isolated set %v, want [2]", out.Isolated)
	}
	// The dropped-while-quarantined report (tick above) plus one more
	// clean tick re-admit device 9.
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(9); st != HealthLive {
		t.Fatalf("device 9 health %v after re-admission, want live", st)
	}
	hs := mon.HealthStats()
	if hs.Quarantines != 1 || hs.Readmissions != 1 || hs.DroppedReports != 1 {
		t.Fatalf("stats %+v", hs)
	}
}

// TestObservePartialGeometryRejected: the only hard rejection left on
// the partial path is a wrong row count, and it must leave the monitor
// untouched — clock, buffers and health.
func TestObservePartialGeometryRejected(t *testing.T) {
	t.Parallel()

	const n = 12
	mon, err := NewMonitor(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := fleetSnapshot(n, 0.95, nil)
	for i := 0; i < 2; i++ {
		if _, err := mon.ObservePartial(clean); err != nil {
			t.Fatal(err)
		}
	}
	prevPtr, committed := mon.prev, mon.prev.Clone()
	if _, err := mon.ObservePartial(fleetSnapshot(n-1, 0.95, nil)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("short snapshot error = %v, want ErrInvalidInput", err)
	}
	if mon.Time() != 2 || mon.prev != prevPtr || !reflect.DeepEqual(mon.prev, committed) {
		t.Fatal("rejected snapshot mutated the monitor")
	}
	if hs := mon.HealthStats(); hs.FaultyTicks != 0 {
		t.Fatalf("rejected snapshot charged health: %+v", hs)
	}
}

// TestObservePartialBufferInvariants: the one position slab and the
// abnormal window's buffers must be kept across clean, degraded,
// quarantining and rejected ticks exactly as they are on the full
// path, and Reset must clear the health state and the slab with the
// buffers still reusable afterwards.
func TestObservePartialBufferInvariants(t *testing.T) {
	t.Parallel()

	const n = 16
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 1, ReadmitTicks: 1}))
	if err != nil {
		t.Fatal(err)
	}
	slab := mon.prev
	clean := fleetSnapshot(n, 0.95, nil)
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}

	// From here the slab must stay the one the monitor was built with,
	// whatever the tick's degradation.
	ticks := [][][]float64{
		fleetSnapshot(n, 0.95, map[int]float64{4: 0.2}), // abnormal
		fleetSnapshot(n, 0.95, nil),
		fleetSnapshot(n, 0.95, nil),
		fleetSnapshot(n, 0.95, nil),
	}
	ticks[1][3] = nil                   // hold
	ticks[2][3] = nil                   // quarantine (K=1)
	ticks[3][3] = []float64{math.NaN()} // still out
	for i, snap := range ticks {
		if _, err := mon.ObservePartial(snap); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if mon.prev != slab {
			t.Fatalf("tick %d: position slab replaced", i)
		}
	}
	if st, _ := mon.DeviceHealth(3); st != HealthQuarantined {
		t.Fatalf("device 3 health %v, want quarantined", st)
	}

	// A rejected tick must not disturb the slab...
	if _, err := mon.ObservePartial(fleetSnapshot(n+1, 0.95, nil)); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("oversized snapshot accepted")
	}
	if mon.prev != slab {
		t.Fatal("rejection replaced the position slab")
	}
	// ...and the window buffers keep recycling: an abnormal tick after
	// all of the above reuses the slices grown earlier.
	ids, rows := mon.win.Abnormal, mon.win.Cur
	out, err := mon.ObservePartial(fleetSnapshot(n, 0.95, map[int]float64{8: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || len(out.Isolated) != 1 || out.Isolated[0] != 8 {
		t.Fatalf("outcome %+v, want isolated [8]", out)
	}
	if cap(ids) == 0 || &mon.win.Abnormal[:1][0] != &ids[:1][0] || &mon.win.Cur[:1][0] != &rows[:1][0] {
		t.Fatal("abnormal window buffers were reallocated instead of recycled")
	}

	// Reset clears health and history; the monitor then streams again
	// from scratch, mixing Observe and ObservePartial freely.
	mon.Reset()
	if mon.Time() != 0 {
		t.Fatalf("Time = %d after Reset", mon.Time())
	}
	if st, _ := mon.DeviceHealth(3); st != HealthLive {
		t.Fatalf("device 3 health %v after Reset, want live", st)
	}
	if hs := mon.HealthStats(); hs.Quarantines != 0 || hs.FaultyTicks != 0 || hs.Live != n {
		t.Fatalf("stats %+v after Reset", hs)
	}
	if origin, _ := space.NewState(n, 1); mon.prev != slab || !reflect.DeepEqual(mon.prev, origin) {
		t.Fatal("Reset left positions in the slab")
	}
	if _, err := mon.Observe(clean); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObservePartial(clean); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(3); st != HealthLive {
		t.Fatalf("device 3 health %v on a clean restart", st)
	}
}

// TestObservePartialHoldWithoutCommittedState: a Hold disposition with
// no committed previous state — a tracker that has consumed reports
// while no tick committed, injected here since a partial tick's
// detector pass cannot fail — must park the device for the window
// instead of detecting on a position that was never committed. The
// guard is the committed flag each bank's Step is handed.
func TestObservePartialHoldWithoutCommittedState(t *testing.T) {
	t.Parallel()

	const n = 8
	mon, err := NewMonitor(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the aftermath of a consumed-but-failed first tick: every
	// device's report folded into health state, no tick committed.
	tr, err := health.New(n, mon.cfg.health)
	if err != nil {
		t.Fatal(err)
	}
	tr.ConsumeAll()
	mon.health.Store(tr)

	snap := fleetSnapshot(n, 0.95, nil)
	snap[3] = nil
	if _, err := mon.ObservePartial(snap); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(3); st != HealthStale {
		t.Fatalf("device 3 health %v, want stale", st)
	}
	// The monitor keeps streaming: device 3 delivers again and rejoins.
	if _, err := mon.ObservePartial(fleetSnapshot(n, 0.95, nil)); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(3); st != HealthLive {
		t.Fatalf("device 3 health %v after clean report, want live", st)
	}
}

// TestObservePartialNeverSeenDevice: a device that has never delivered
// a clean report has no value to hold — it sits out the window parked
// at the origin and joins the population on its first clean report.
func TestObservePartialNeverSeenDevice(t *testing.T) {
	t.Parallel()

	const n = 16
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 5, ReadmitTicks: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Device 11 is silent from the very first tick.
	for i := 0; i < 2; i++ {
		snap := fleetSnapshot(n, 0.95, nil)
		snap[11] = nil
		if _, err := mon.ObservePartial(snap); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := mon.DeviceHealth(11); st != HealthStale {
		t.Fatalf("device 11 health %v, want stale", st)
	}
	if hs := mon.HealthStats(); hs.HeldTicks != 0 {
		t.Fatalf("held %d ticks for a device with no value", hs.HeldTicks)
	}
	// First delivery: consumed, device joins cleanly.
	snap := fleetSnapshot(n, 0.95, nil)
	if _, err := mon.ObservePartial(snap); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(11); st != HealthLive {
		t.Fatalf("device 11 health %v after first report, want live", st)
	}
}

// TestMonitorHealthAccessors: bounds checking and the Observe-only
// default.
func TestMonitorHealthAccessors(t *testing.T) {
	t.Parallel()

	mon, err := NewMonitor(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.DeviceHealth(-1); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("negative device accepted")
	}
	if _, err := mon.DeviceHealth(8); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("out-of-range device accepted")
	}
	if st, err := mon.DeviceHealth(0); err != nil || st != HealthLive {
		t.Fatalf("DeviceHealth(0) = %v, %v", st, err)
	}
	if hs := mon.HealthStats(); hs.Live != 8 || hs.Stale != 0 || hs.Quarantined != 0 {
		t.Fatalf("Observe-only stats %+v", hs)
	}
	if _, err := NewMonitor(8, 1, WithHealthPolicy(HealthPolicy{HoldTicks: -1, ReadmitTicks: 1})); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("negative HoldTicks accepted")
	}
	if _, err := NewMonitor(8, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 0, ReadmitTicks: 0})); !errors.Is(err, ErrInvalidInput) {
		t.Fatal("zero ReadmitTicks accepted")
	}
}

// TestStrictThenPartialHoldsDevice: strict ticks give every device a
// last-known value, so a partial tick that misses a device holds it at
// its committed position rather than skipping it — whether the tracker
// is built after the strict ticks or already exists — and Reset forgets
// those values again.
func TestStrictThenPartialHoldsDevice(t *testing.T) {
	t.Parallel()

	const n = 6
	row := func(x, y float64) [][]float64 {
		snap := make([][]float64, n)
		for j := range snap {
			snap[j] = []float64{0.5, 0.5}
		}
		snap[3] = []float64{x, y}
		return snap
	}
	missing := row(0, 0)
	missing[3] = nil
	held := func(t *testing.T, mon *Monitor, wantHeld int64, wantPos []float64) {
		t.Helper()
		hs := mon.HealthStats()
		if hs.HeldTicks != wantHeld || hs.Stale != 1 || hs.Live != n-1 {
			t.Fatalf("health %+v, want %d held tick(s) and device 3 stale", hs, wantHeld)
		}
		if st, _ := mon.DeviceHealth(3); st != HealthStale {
			t.Fatalf("device 3 health %v, want stale", st)
		}
		if got := mon.prev.At(3); !reflect.DeepEqual([]float64(got), wantPos) {
			t.Fatalf("device 3 committed at %v, want %v", got, wantPos)
		}
	}

	mon, err := NewMonitor(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range [][][]float64{row(0.5, 0.5), row(0.52, 0.48)} {
		if _, err := mon.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.ObservePartial(missing); err != nil {
		t.Fatal(err)
	}
	held(t, mon, 1, []float64{0.52, 0.48})

	mon.Reset()
	if hs := mon.HealthStats(); hs != (HealthStats{Live: n}) {
		t.Fatalf("health after Reset %+v, want all live and zero counters", hs)
	}
	// After Reset device 3 has no value to hold: it sits the tick out,
	// parked at the origin.
	if _, err := mon.ObservePartial(missing); err != nil {
		t.Fatal(err)
	}
	if hs := mon.HealthStats(); hs.HeldTicks != 0 || hs.Stale != 1 {
		t.Fatalf("health %+v, want device 3 stale and nothing held", hs)
	}
	if got := mon.prev.At(3); !reflect.DeepEqual([]float64(got), []float64{0, 0}) {
		t.Fatalf("unseen device 3 parked at %v, want the origin", got)
	}

	// The tracker exists now; a strict tick marks every device seen.
	mon.Reset()
	if _, err := mon.Observe(row(0.3, 0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObservePartial(missing); err != nil {
		t.Fatal(err)
	}
	held(t, mon, 1, []float64{0.3, 0.7})
}

// TestFirstSampleNeverJumps: a device's first sample only trains its
// detectors, whichever tick delivers it, so it is never flagged, on
// either bank. Device 5 is silent over several partial ticks, parked
// at the origin, and then delivers 0.9, far from it: in a partial tick,
// in a strict tick, and both again on a monitor whose tracker was built
// lazily after strict ticks and then Reset. The tick after the first
// sample returns it to 0.5, which is a jump: its detectors trained.
// Every tick, the Threshold bank must give what the per-device bank
// gives.
func TestFirstSampleNeverJumps(t *testing.T) {
	t.Parallel()

	const n, dev = 16, 5
	quiet := fleetSnapshot(n, 0.5, nil)
	silent := fleetSnapshot(n, 0.5, nil)
	silent[dev] = nil
	first := fleetSnapshot(n, 0.5, map[int]float64{dev: 0.9})
	type tick struct {
		snap          [][]float64
		strict, reset bool
	}
	lazy := []tick{{quiet, true, false}, {quiet, true, false}, {quiet, false, false}, {silent, false, true}}
	for _, leg := range []struct {
		name   string
		before []tick
		strict bool
	}{
		{"partial", nil, false},
		{"strict", nil, true},
		{"lazy tracker, partial", lazy, false},
		{"lazy tracker, strict", lazy, true},
	} {
		ticks := append(slices.Clone(leg.before), tick{snap: silent}, tick{snap: silent}, tick{snap: silent},
			tick{snap: first, strict: leg.strict}, tick{snap: quiet, strict: leg.strict})
		policy := WithHealthPolicy(HealthPolicy{HoldTicks: 5, ReadmitTicks: 1})
		bank, err := NewMonitor(n, 1, policy)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := NewMonitor(n, 1, policy, WithDetectorFactory(genericThreshold))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bank.bank.(*detect.ThresholdBank); !ok {
			t.Fatal("the default factory must run the Threshold bank")
		}
		for k, tk := range ticks {
			observe := (*Monitor).ObservePartial
			if tk.strict {
				observe = (*Monitor).Observe
			}
			if tk.reset {
				bank.Reset()
				generic.Reset()
			}
			got, err := observe(bank, tk.snap)
			if err != nil {
				t.Fatalf("%s tick %d: %v", leg.name, k, err)
			}
			want, err := observe(generic, tk.snap)
			if err != nil {
				t.Fatalf("%s tick %d: %v", leg.name, k, err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(bank.prev, generic.prev) {
				t.Fatalf("%s tick %d: Threshold bank %+v, per-device bank %+v", leg.name, k, got, want)
			}
			flagged := got != nil && slices.ContainsFunc(got.Reports, func(r Report) bool { return r.Device == dev })
			if last := k == len(ticks)-1; flagged != last {
				t.Fatalf("%s tick %d: device %d flagged %v, want %v", leg.name, k, dev, flagged, last)
			}
		}
	}
}

// observeTwinSnapshot is tick k of the twin test's stream over n
// devices of two services. Every device drifts by at most 0.02.
// Devices 1, 2, n/2 and n−1 miss the ticks k ≡ 1, 2 (mod 4), and with
// devices 3 and 4 alternate between 0.5 and 0.8 each tick; device 5
// misses the ticks k ≡ 2 and jumps to 0.8 on the ticks k ≡ 3.
func observeTwinSnapshot(n, k int) [][]float64 {
	impaired := []int{1, 2, n / 2, n - 1}
	rows := make([][]float64, n)
	for j := range rows {
		v := 0.5 + 0.01*float64(k%3)
		switch {
		case j == 5:
			if k%4 == 3 {
				v = 0.8
			}
		case j == 3 || j == 4 || slices.Contains(impaired, j):
			v = 0.5 + 0.3*float64(k%2)
		}
		rows[j] = []float64{v, 1 - v}
	}
	if k%4 == 1 || k%4 == 2 {
		for _, j := range impaired {
			rows[j] = nil
		}
	}
	if k%4 == 2 {
		rows[5] = nil
	}
	return rows
}

// TestObserveMatchesObservePartialOnCleanTicks: Observe is
// ObservePartial behind a reject rule. Twin monitors share a partial
// history in which devices miss two ticks of every four (HoldTicks 1,
// ReadmitTicks 2): they turn stale, are quarantined, have a clean
// report dropped and are re-admitted, while another device is stale
// for one tick and jumps on its return. Every clean snapshot goes
// through Observe on one twin and ObservePartial on the other, and the
// twins must return the same Outcome, commit the same positions and
// report the same health for every device and the same HealthStats,
// tick after tick, on both banks, serial and sharded.
func TestObserveMatchesObservePartialOnCleanTicks(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		name       string
		n, workers int
		generic    bool
	}{
		{"threshold bank/serial", 16, 1, false},
		{"threshold bank/sharded", 4 * 2048, 4, false},
		{"per-device bank/serial", 16, 1, true},
		{"per-device bank/sharded", 4 * 2048, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := []Option{WithIngestWorkers(tc.workers), WithHealthPolicy(HealthPolicy{HoldTicks: 1, ReadmitTicks: 2})}
			if tc.generic {
				opts = append(opts, WithDetectorFactory(genericThreshold))
			}
			strict, err := NewMonitor(tc.n, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			partial, err := NewMonitor(tc.n, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			strictTicks, flagged := 0, 0
			for k := range 16 {
				snap := observeTwinSnapshot(tc.n, k)
				observe := (*Monitor).ObservePartial
				if !slices.ContainsFunc(snap, func(row []float64) bool { return row == nil }) {
					observe = (*Monitor).Observe
					strictTicks++
				}
				got, err := observe(strict, snap)
				if err != nil {
					t.Fatalf("tick %d: %v", k, err)
				}
				want, err := partial.ObservePartial(snap)
				if err != nil {
					t.Fatalf("tick %d: %v", k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tick %d: Observe %+v, ObservePartial %+v", k, got, want)
				}
				if !reflect.DeepEqual(strict.prev, partial.prev) {
					t.Fatalf("tick %d: the twins committed different positions", k)
				}
				if gs, ws := strict.HealthStats(), partial.HealthStats(); gs != ws {
					t.Fatalf("tick %d: health %+v, want %+v", k, gs, ws)
				}
				for dev := range tc.n {
					gh, _ := strict.DeviceHealth(dev)
					wh, _ := partial.DeviceHealth(dev)
					if gh != wh {
						t.Fatalf("tick %d device %d: health %v, want %v", k, dev, gh, wh)
					}
				}
				if got != nil {
					flagged++
				}
			}
			hs := partial.HealthStats()
			if strictTicks != 8 || flagged < 8 || hs.Quarantines == 0 || hs.Readmissions == 0 || hs.DroppedReports == 0 || hs.HeldTicks == 0 {
				t.Fatalf("stream misses a transition: %d strict ticks, %d flagged, %+v", strictTicks, flagged, hs)
			}
		})
	}
}

// TestObserveNeverFlagsQuarantinedDevice: a quarantined device is
// never abnormal, whichever way its report arrives. Device 0 misses
// three partial ticks (HoldTicks 1), so it is quarantined; a strict
// tick then carries its jump to 0.9, which the quarantine drops. The
// next one re-admits it and consumes the report.
func TestObserveNeverFlagsQuarantinedDevice(t *testing.T) {
	t.Parallel()

	const n = 8
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 1, ReadmitTicks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ObservePartial(fleetSnapshot(n, 0.5, nil)); err != nil {
		t.Fatal(err)
	}
	missing := fleetSnapshot(n, 0.5, nil)
	missing[0] = nil
	for range 3 {
		if _, err := mon.ObservePartial(missing); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := mon.DeviceHealth(0); st != HealthQuarantined {
		t.Fatalf("device 0 health %v after three missed ticks, want quarantined", st)
	}
	jump := fleetSnapshot(n, 0.5, map[int]float64{0: 0.9})
	out, err := mon.Observe(jump)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatalf("a strict tick flagged %+v from a quarantined device", out)
	}
	if st, _ := mon.DeviceHealth(0); st != HealthQuarantined {
		t.Fatalf("device 0 health %v after one clean report, want quarantined", st)
	}
	if got := mon.prev.At(0); got[0] != 0.5 {
		t.Fatalf("quarantined device 0 moved to %v, want parked at 0.5", got)
	}
	if out, err = mon.Observe(jump); err != nil {
		t.Fatal(err)
	}
	if st, _ := mon.DeviceHealth(0); st != HealthLive || out == nil || !slices.Equal(out.Isolated, []int{0}) {
		t.Fatalf("after re-admission device 0 is %v and the outcome %+v, want live and isolated", st, out)
	}
	if hs := mon.HealthStats(); hs.Quarantines != 1 || hs.Readmissions != 1 || hs.DroppedReports != 1 {
		t.Fatalf("health %+v, want one quarantine, one drop, one re-admission", hs)
	}
}

// TestObserveBreaksFaultStreak: a clean report breaks a device's run
// of faults, whichever way it arrives. With HoldTicks 2, a fault, a
// clean strict tick and two more faults leave device 0 stale, not
// quarantined.
func TestObserveBreaksFaultStreak(t *testing.T) {
	t.Parallel()

	const n = 8
	mon, err := NewMonitor(n, 1, WithHealthPolicy(HealthPolicy{HoldTicks: 2, ReadmitTicks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	clean := fleetSnapshot(n, 0.5, nil)
	missing := fleetSnapshot(n, 0.5, nil)
	missing[0] = nil
	for k, tk := range []struct {
		snap   [][]float64
		strict bool
	}{{clean, false}, {missing, false}, {clean, true}, {missing, false}, {missing, false}} {
		observe := (*Monitor).ObservePartial
		if tk.strict {
			observe = (*Monitor).Observe
		}
		if _, err := observe(mon, tk.snap); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
	if st, _ := mon.DeviceHealth(0); st != HealthStale {
		t.Fatalf("device 0 health %v, want stale: the strict tick's clean report broke its streak", st)
	}
	if hs := mon.HealthStats(); hs.Quarantines != 0 || hs.Stale != 1 || hs.HeldTicks != 3 {
		t.Fatalf("health %+v, want device 0 stale, never quarantined, three held ticks", hs)
	}
}
