package netsim

import (
	"errors"
	"testing"
	"time"
)

func TestWireInjectorConfigValidation(t *testing.T) {
	bad := []WireConfig{
		{Shards: 0},
		{Shards: 2, DropProb: -0.1},
		{Shards: 2, DropProb: 0.7, SlowProb: 0.5},
		{Shards: 2, SlowProb: 1.5},
		{Shards: 2, Latency: -time.Millisecond},
		{Shards: 2, Crashes: []WireOutage{{Shard: 2, Start: 0, End: 1}}},
		{Shards: 2, Crashes: []WireOutage{{Shard: 0, Start: 5, End: 5}}},
		{Shards: 2, Partitions: []WireOutage{{Shard: -1, Start: 0, End: 1}}},
		{Shards: 2, Partitions: []WireOutage{{Shard: 1, Start: -1, End: 1}}},
	}
	for i, cfg := range bad {
		if _, err := NewWireInjector(cfg); !errors.Is(err, ErrNetConfig) {
			t.Errorf("config %d (%+v): error = %v, want ErrNetConfig", i, cfg, err)
		}
	}
	if _, err := NewWireInjector(WireConfig{Shards: 1}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

// TestWireInjectorScheduleIndependence is the determinism contract: the
// probabilistic drop/slow stream consumes exactly one draw per shard per
// window whether or not a schedule silences the shard, so adding a crash
// or partition schedule must not perturb the fault pattern of any
// unaffected shard-window.
func TestWireInjectorScheduleIndependence(t *testing.T) {
	const shards, windows = 4, 120
	base := WireConfig{Seed: 42, Shards: shards, DropProb: 0.2, SlowProb: 0.3, Latency: time.Millisecond}
	sched := base
	sched.Crashes = []WireOutage{{Shard: 1, Start: 10, End: 40}}
	sched.Partitions = []WireOutage{{Shard: 3, Start: 60, End: 90}}

	a, err := NewWireInjector(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWireInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		fa := append([]WireFault(nil), a.Step()...)
		fb := b.Step()
		for s := 0; s < shards; s++ {
			inCrash := s == 1 && w >= 10 && w < 40
			inPart := s == 3 && w >= 60 && w < 90
			if inCrash || inPart {
				if fb[s].Down != inCrash || fb[s].Partitioned != inPart {
					t.Fatalf("window %d shard %d: scheduled fault missing: %+v", w, s, fb[s])
				}
				if fb[s].Drop || fb[s].Slow {
					t.Fatalf("window %d shard %d: probabilistic fault inside outage: %+v", w, s, fb[s])
				}
				continue
			}
			if fa[s] != fb[s] {
				t.Fatalf("window %d shard %d: schedule perturbed randomness: base %+v vs scheduled %+v",
					w, s, fa[s], fb[s])
			}
		}
	}
}

func TestWireInjectorDeterministicReplay(t *testing.T) {
	cfg := WireConfig{
		Seed: 7, Shards: 3, DropProb: 0.1, SlowProb: 0.2, Latency: 2 * time.Millisecond,
		Crashes:    []WireOutage{{Shard: 0, Start: 5, End: 9}},
		Partitions: []WireOutage{{Shard: 2, Start: 12, End: 20}},
	}
	a, _ := NewWireInjector(cfg)
	b, _ := NewWireInjector(cfg)
	for w := 0; w < 50; w++ {
		fa := append([]WireFault(nil), a.Step()...)
		fb := b.Step()
		for s := range fb {
			if fa[s] != fb[s] {
				t.Fatalf("window %d shard %d: replay diverged", w, s)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("replay stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Window() != 50 {
		t.Fatalf("Window() = %d, want 50", a.Window())
	}
}

func TestWireInjectorStatsAccounting(t *testing.T) {
	cfg := WireConfig{
		Seed: 3, Shards: 2, DropProb: 0.5, SlowProb: 0.5,
		Crashes:    []WireOutage{{Shard: 0, Start: 0, End: 10}},
		Partitions: []WireOutage{{Shard: 1, Start: 0, End: 10}},
	}
	w, _ := NewWireInjector(cfg)
	for i := 0; i < 10; i++ {
		faults := w.Step()
		if !faults[0].Down || !faults[1].Partitioned {
			t.Fatalf("window %d: scheduled faults not applied: %+v", i, faults)
		}
		if !faults[0].Unreachable() || !faults[1].Unreachable() {
			t.Fatalf("window %d: Unreachable() false during outage", i)
		}
	}
	st := w.Stats()
	if st.CrashedWins != 10 || st.PartedWins != 10 || st.Dropped != 0 || st.Slowed != 0 {
		t.Fatalf("stats = %+v, want 10 crashed / 10 parted / 0 probabilistic", st)
	}
	// Past the schedules every shard-window is probabilistic: drop+slow
	// probabilities sum to 1, so each of the next 20 shard-windows counts.
	for i := 0; i < 10; i++ {
		w.Step()
	}
	st = w.Stats()
	if st.Dropped+st.Slowed != 20 {
		t.Fatalf("probabilistic shard-windows = %d, want 20 (%+v)", st.Dropped+st.Slowed, st)
	}
}
