package health

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// report feeds one tick's pattern and asserts the disposition.
func expect(t *testing.T, tr *Tracker, dev int, clean bool, want Disposition) {
	t.Helper()
	if got := tr.Report(dev, clean); got != want {
		t.Fatalf("Report(%d, %v) = %v, want %v (state %v)", dev, clean, got, want, tr.State(dev))
	}
}

func mustNew(t *testing.T, n int, p Policy) *Tracker {
	t.Helper()
	tr, err := New(n, p)
	if err != nil {
		t.Fatalf("New(%d, %+v): %v", n, p, err)
	}
	return tr
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		n int
		p Policy
	}{
		{0, DefaultPolicy()},
		{-1, DefaultPolicy()},
		{4, Policy{HoldTicks: -1, ReadmitTicks: 1}},
		{4, Policy{HoldTicks: 0, ReadmitTicks: 0}},
		{4, Policy{HoldTicks: 2, ReadmitTicks: -3}},
	} {
		if _, err := New(tc.n, tc.p); err == nil {
			t.Errorf("New(%d, %+v): want error", tc.n, tc.p)
		}
	}
}

func TestFreshTrackerAllLive(t *testing.T) {
	tr := mustNew(t, 5, DefaultPolicy())
	if !tr.AllLive() {
		t.Fatal("fresh tracker not all-live")
	}
	live, stale, quar := tr.Counts()
	if live != 5 || stale != 0 || quar != 0 {
		t.Fatalf("Counts() = %d, %d, %d", live, stale, quar)
	}
	for dev := 0; dev < 5; dev++ {
		if tr.State(dev) != Live {
			t.Fatalf("device %d state %v", dev, tr.State(dev))
		}
	}
}

func TestHoldThenQuarantineThenReadmit(t *testing.T) {
	tr := mustNew(t, 2, Policy{HoldTicks: 2, ReadmitTicks: 2})
	// Tick 1: both clean, device 0 now has a value to hold.
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 1, true, Consume)
	// Faults: K=2 ticks held, quarantined on the third.
	expect(t, tr, 0, false, Hold)
	if tr.State(0) != Stale {
		t.Fatalf("state after first fault: %v", tr.State(0))
	}
	if tr.AllLive() {
		t.Fatal("AllLive with a stale device")
	}
	expect(t, tr, 0, false, Hold)
	expect(t, tr, 0, false, Skip)
	if tr.State(0) != Quarantined {
		t.Fatalf("state after %d faults: %v", 3, tr.State(0))
	}
	// Re-admission run: first clean report dropped, second consumed.
	expect(t, tr, 0, true, Skip)
	expect(t, tr, 0, true, Consume)
	if tr.State(0) != Live {
		t.Fatalf("state after re-admission: %v", tr.State(0))
	}
	// Device 1 was untouched by 0's churn.
	if tr.State(1) != Live {
		t.Fatalf("bystander state: %v", tr.State(1))
	}
	expect(t, tr, 1, true, Consume)
	if !tr.AllLive() {
		t.Fatal("not all-live after full recovery")
	}
	st := tr.Stats()
	if st.Quarantines != 1 || st.Readmissions != 1 || st.HeldTicks != 2 ||
		st.DroppedReports != 1 || st.FaultyTicks != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCleanReportRevivesStale(t *testing.T) {
	tr := mustNew(t, 1, Policy{HoldTicks: 3, ReadmitTicks: 2})
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 0, false, Hold)
	expect(t, tr, 0, false, Hold)
	// One clean report resets the fault run entirely.
	expect(t, tr, 0, true, Consume)
	if tr.State(0) != Live || !tr.AllLive() {
		t.Fatalf("state %v after recovery", tr.State(0))
	}
	// The fault counter restarted: three more held ticks before quarantine.
	expect(t, tr, 0, false, Hold)
	expect(t, tr, 0, false, Hold)
	expect(t, tr, 0, false, Hold)
	expect(t, tr, 0, false, Skip)
	if tr.State(0) != Quarantined {
		t.Fatalf("state %v, want quarantined", tr.State(0))
	}
}

func TestZeroHoldQuarantinesImmediately(t *testing.T) {
	tr := mustNew(t, 1, Policy{HoldTicks: 0, ReadmitTicks: 1})
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 0, false, Skip)
	if tr.State(0) != Quarantined {
		t.Fatalf("state %v, want quarantined", tr.State(0))
	}
	// ReadmitTicks=1: the first clean report re-admits and is consumed.
	expect(t, tr, 0, true, Consume)
	if tr.State(0) != Live {
		t.Fatalf("state %v, want live", tr.State(0))
	}
}

func TestFaultBreaksReadmissionRun(t *testing.T) {
	tr := mustNew(t, 1, Policy{HoldTicks: 0, ReadmitTicks: 3})
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 0, false, Skip) // quarantined
	expect(t, tr, 0, true, Skip)  // clean run 1/3
	expect(t, tr, 0, true, Skip)  // clean run 2/3
	expect(t, tr, 0, false, Skip) // run broken
	expect(t, tr, 0, true, Skip)  // must start over: 1/3
	expect(t, tr, 0, true, Skip)  // 2/3
	expect(t, tr, 0, true, Consume)
	if tr.State(0) != Live {
		t.Fatalf("state %v, want live", tr.State(0))
	}
	if st := tr.Stats(); st.DroppedReports != 4 {
		t.Fatalf("dropped %d, want 4", st.DroppedReports)
	}
}

func TestNeverSeenDeviceSkipsNotHolds(t *testing.T) {
	tr := mustNew(t, 1, Policy{HoldTicks: 5, ReadmitTicks: 1})
	// No value was ever delivered: nothing to hold, but the quarantine
	// countdown still advances.
	for i := 0; i < 5; i++ {
		expect(t, tr, 0, false, Skip)
	}
	if tr.State(0) != Stale {
		t.Fatalf("state %v, want stale", tr.State(0))
	}
	expect(t, tr, 0, false, Skip)
	if tr.State(0) != Quarantined {
		t.Fatalf("state %v, want quarantined", tr.State(0))
	}
	if st := tr.Stats(); st.HeldTicks != 0 {
		t.Fatalf("held %d ticks with no value to hold", st.HeldTicks)
	}
	// First clean report ever re-admits (R=1) and is consumed; the
	// device now has a value, so later faults hold.
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 0, false, Hold)
}

func TestResetRestoresFreshState(t *testing.T) {
	tr := mustNew(t, 3, Policy{HoldTicks: 0, ReadmitTicks: 2})
	expect(t, tr, 0, true, Consume)
	expect(t, tr, 0, false, Skip)
	expect(t, tr, 1, false, Skip)
	tr.Reset()
	if !tr.AllLive() {
		t.Fatal("not all-live after Reset")
	}
	if st := (Stats{}); tr.Stats() != st {
		t.Fatalf("stats %+v after Reset", tr.Stats())
	}
	// seen was cleared too: a fault before any report skips, not holds.
	expect(t, tr, 0, false, Skip)
}

// TestCountsTrackImpairment drives a small fleet through mixed ticks
// and checks Counts against a brute-force recount every step.
func TestCountsTrackImpairment(t *testing.T) {
	const n = 7
	tr := mustNew(t, n, Policy{HoldTicks: 1, ReadmitTicks: 2})
	// Deterministic pseudo-pattern: device d is faulty on tick k when
	// (k*7+d*3)%5 < 2.
	for k := 0; k < 40; k++ {
		for d := 0; d < n; d++ {
			tr.Report(d, (k*7+d*3)%5 >= 2)
		}
		var live, stale, quar int
		for d := 0; d < n; d++ {
			switch tr.State(d) {
			case Live:
				live++
			case Stale:
				stale++
			default:
				quar++
			}
		}
		gl, gs, gq := tr.Counts()
		if gl != live || gs != stale || gq != quar {
			t.Fatalf("tick %d: Counts() = %d/%d/%d, recount %d/%d/%d", k, gl, gs, gq, live, stale, quar)
		}
		if tr.AllLive() != (stale == 0 && quar == 0) {
			t.Fatalf("tick %d: AllLive() = %v with %d stale %d quarantined", k, tr.AllLive(), stale, quar)
		}
	}
}

// TestConsumeAllGivesHoldSemantics: a fully-clean fast-path tick
// recorded via ConsumeAll must count as a consumed report for every
// device — the first fault after an all-clean history is held, not
// skipped — and Reset must clear that memory.
func TestConsumeAllGivesHoldSemantics(t *testing.T) {
	tr := mustNew(t, 3, Policy{HoldTicks: 2, ReadmitTicks: 1})
	tr.ConsumeAll()
	expect(t, tr, 0, false, Hold)
	if tr.State(0) != Stale {
		t.Fatalf("state after held fault: %v", tr.State(0))
	}
	if tr.Stats().HeldTicks != 1 {
		t.Fatalf("HeldTicks = %d, want 1", tr.Stats().HeldTicks)
	}
	// Per-device seen still composes with the flag: device 1 never
	// reported individually, but the fast-path tick covered it too.
	expect(t, tr, 1, false, Hold)

	tr.Reset()
	// The fleet-wide last-known values are gone with everything else: a
	// fault before any report skips again.
	expect(t, tr, 2, false, Skip)
}

// TestShardViews: Shard hands out a range's states only while some
// device is impaired and its last-known marks only until ConsumeAll,
// and the slices it returns alias the tracker's own.
func TestShardViews(t *testing.T) {
	tr := mustNew(t, 4, DefaultPolicy())
	if states, seen := tr.Shard(1, 3); states != nil || len(seen) != 2 {
		t.Fatalf("fresh tracker: Shard = %v, %v; want nil states and 2 marks", states, seen)
	}
	expect(t, tr, 1, true, Consume)
	expect(t, tr, 2, false, Skip)
	states, seen := tr.Shard(1, 3)
	if !slices.Equal(states, []State{Live, Stale}) || !slices.Equal(seen, []bool{true, false}) {
		t.Fatalf("one stale device: Shard = %v, %v", states, seen)
	}
	seen[1] = true
	expect(t, tr, 2, false, Hold)
	tr.ConsumeAll()
	if _, seen := tr.Shard(0, 4); seen != nil {
		t.Fatalf("after ConsumeAll: marks %v, want nil", seen)
	}
}

// TestTransitionShardParity runs one random clean/fault stream through
// serial Report and through Transition split over contiguous device
// ranges, each range on its own goroutine with its own Delta, the
// deltas applied in a random order. Every tick must leave the two
// trackers with the same dispositions, states, Counts, Stats and
// AllLive, under every policy and split.
func TestTransitionShardParity(t *testing.T) {
	t.Parallel()

	const n, ticks = 61, 300
	for _, p := range []Policy{
		{HoldTicks: 0, ReadmitTicks: 1},
		{HoldTicks: 0, ReadmitTicks: 3},
		DefaultPolicy(),
		{HoldTicks: 5, ReadmitTicks: 1},
	} {
		for _, shards := range []int{1, 3, 8} {
			rng := rand.New(rand.NewPCG(uint64(p.HoldTicks*10+p.ReadmitTicks), uint64(shards)))
			serial, sharded := mustNew(t, n, p), mustNew(t, n, p)
			clean := make([]bool, n)
			// Each device flips between a reporting and an outage spell,
			// so the stream crosses every transition of the machine.
			down := make([]bool, n)
			want, got := make([]Disposition, n), make([]Disposition, n)
			deltas := make([]Delta, shards)
			for tick := range ticks {
				for dev := range clean {
					if rng.IntN(8) == 0 {
						down[dev] = !down[dev]
					}
					clean[dev] = !down[dev] && rng.IntN(20) != 0
				}
				if tick%50 >= 45 {
					clear(down)
					for dev := range clean {
						clean[dev] = true
					}
				}
				allLive := serial.AllLive()
				for dev, c := range clean {
					want[dev] = serial.Report(dev, c)
				}
				if allLive && !slices.Contains(clean, false) {
					serial.ConsumeAll()
				}

				allLive = sharded.AllLive()
				cuts := []int{0, n}
				for len(cuts) < shards+1 {
					if c := 1 + rng.IntN(n-1); !slices.Contains(cuts, c) {
						cuts = append(cuts, c)
					}
				}
				slices.Sort(cuts)
				clear(deltas)
				var wg sync.WaitGroup
				for i := range shards {
					wg.Add(1)
					go func(lo, hi int, d *Delta) {
						defer wg.Done()
						for dev := lo; dev < hi; dev++ {
							got[dev] = sharded.Transition(dev, clean[dev], d)
						}
					}(cuts[i], cuts[i+1], &deltas[i])
				}
				wg.Wait()
				for _, i := range rng.Perm(shards) {
					sharded.Apply(&deltas[i])
				}
				if allLive && !slices.Contains(clean, false) {
					sharded.ConsumeAll()
				}

				if !slices.Equal(got, want) {
					t.Fatalf("policy %+v, %d shards, tick %d: dispositions %v, serial %v", p, shards, tick, got, want)
				}
				if !slices.Equal(sharded.states, serial.states) {
					t.Fatalf("policy %+v, %d shards, tick %d: states %v, serial %v", p, shards, tick, sharded.states, serial.states)
				}
				gl, gs, gq := sharded.Counts()
				wl, ws, wq := serial.Counts()
				if [3]int{gl, gs, gq} != [3]int{wl, ws, wq} || sharded.Stats() != serial.Stats() || sharded.AllLive() != serial.AllLive() {
					t.Fatalf("policy %+v, %d shards, tick %d: counts %d/%d/%d stats %+v all-live %v, serial %d/%d/%d %+v %v",
						p, shards, tick, gl, gs, gq, sharded.Stats(), sharded.AllLive(), wl, ws, wq, serial.Stats(), serial.AllLive())
				}
			}
		}
	}
}
