package anomalia

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"anomalia/internal/dirnet"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// TestDistributedWindowErrorRecovers pins the monitor's mid-stream
// error policy for the in-process distributed directory: a window whose
// directory build fails returns that error, and the next abnormal
// window indexes its own directory and decides with Dist stats.
func TestDistributedWindowErrorRecovers(t *testing.T) {
	t.Parallel()

	const n = 12
	m, err := NewMonitor(n, 1, WithDistributed(true), WithRadius(0.03), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	event := map[int]float64{0: 0.50, 1: 0.50, 2: 0.51, 3: 0.49, 5: 0.20}

	if _, err := m.Observe(fleetSnapshot(n, 0.95, nil)); err != nil {
		t.Fatal(err)
	}
	out, err := m.Observe(fleetSnapshot(n, 0.95, event))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Dist == nil {
		t.Fatal("abnormal window was not decided by the directory")
	}

	// Inject a failing window: an abnormal id outside the population
	// fails canonicalization inside dist.NewDirectory.
	prev, err := space.NewState(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := space.NewState(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.characterizeWindow(pair, []int{n + 3}); err == nil {
		t.Fatal("out-of-range abnormal id must fail the window")
	}

	// The monitor recovers on its own: the next abnormal window (the
	// recovery edge) still decides through the directory.
	out, err = m.Observe(fleetSnapshot(n, 0.95, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("recovery window not detected")
	}
	if out.Dist == nil {
		t.Fatal("window after the failed one lost its distributed decision stats")
	}
}

// TestNetworkedAdvanceErrorDegradesWindow is the wire counterpart of
// TestDistributedWindowErrorRecovers: when the over-the-wire window
// request fails mid-stream, the monitor must serve that window from the
// centralized fallback with unchanged verdicts — never an Observe
// error — and the next abnormal window must go networked again with
// verdict parity, with no recovery step.
func TestNetworkedAdvanceErrorDegradesWindow(t *testing.T) {
	t.Parallel()

	const n = 12
	srv := dirnet.NewServer()
	refuse := false
	dial := func(string) (net.Conn, error) {
		if refuse {
			return nil, errors.New("injected: shard unreachable")
		}
		c1, c2 := net.Pipe()
		go srv.HandleConn(c2)
		return c1, nil
	}
	opts := []Option{WithRadius(0.03), WithTau(3)}
	networked, err := NewMonitor(n, 1, append(opts, WithDirectory(DirectoryConfig{
		Addrs:        []string{"shard-0"},
		Dial:         dial,
		MaxRetries:   1,
		BreakerFails: 10, // keep the breaker closed: this test is about the window, not the breaker
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	central, err := NewMonitor(n, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	event := map[int]float64{0: 0.50, 1: 0.50, 2: 0.51, 3: 0.49, 5: 0.20}

	// Window plan: tick 1 abnormal (networked), tick 2 abnormal
	// (recovery edge) with the shard unreachable — the over-the-wire
	// window sync fails and the window degrades — tick 3 abnormal with
	// the shard healed — networked again, the shard rebuilt from that
	// window's own message.
	step := func(tick int, samples [][]float64) (*Outcome, *Outcome) {
		t.Helper()
		want, err := central.Observe(samples)
		if err != nil {
			t.Fatalf("tick %d centralized: %v", tick, err)
		}
		got, err := networked.Observe(samples)
		if err != nil {
			t.Fatalf("tick %d networked: Observe must absorb shard unavailability: %v", tick, err)
		}
		return got, want
	}
	verdicts := func(o *Outcome) [3][]int { return [3][]int{o.Massive, o.Isolated, o.Unresolved} }

	step(0, fleetSnapshot(n, 0.95, nil))
	got, want := step(1, fleetSnapshot(n, 0.95, event))
	if got == nil || want == nil {
		t.Fatal("abnormal window not detected")
	}
	if !reflect.DeepEqual(verdicts(got), verdicts(want)) {
		t.Fatalf("networked window diverged: %v vs %v", verdicts(got), verdicts(want))
	}

	refuse = true
	networked.dirClient.Close() // a live pipe would outlast the refusal
	got, want = step(2, fleetSnapshot(n, 0.95, nil))
	if got == nil || want == nil {
		t.Fatal("recovery window not detected")
	}
	if !reflect.DeepEqual(verdicts(got), verdicts(want)) {
		t.Fatalf("degraded window diverged from centralized oracle: %v vs %v", verdicts(got), verdicts(want))
	}
	if got.Dist != nil {
		t.Fatal("degraded window still carries directory traffic — it did not fall back")
	}
	if ds := networked.DirStats(); ds.Degraded != 1 || ds.Networked != 1 {
		t.Fatalf("after the failed window DirStats = %+v, want 1 networked / 1 degraded", ds)
	}

	refuse = false
	step(3, fleetSnapshot(n, 0.95, event))
	got, want = step(4, fleetSnapshot(n, 0.95, nil))
	if got == nil || want == nil {
		t.Fatal("post-heal window not detected")
	}
	if !reflect.DeepEqual(verdicts(got), verdicts(want)) {
		t.Fatalf("post-heal networked window diverged: %v vs %v", verdicts(got), verdicts(want))
	}
	if got.Dist == nil {
		t.Fatal("post-heal window lost its distributed decision stats — it did not go back over the wire")
	}
	ds := networked.DirStats()
	if ds.Windows != 4 || ds.Networked != 3 || ds.Degraded != 1 {
		t.Fatalf("final DirStats = %+v, want 4 windows: 3 networked, 1 degraded", ds)
	}
}
