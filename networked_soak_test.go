package anomalia_test

// Networked-directory soak: the full wire stack — dirnet shard
// servers, the deadline/retry/backoff client with its per-shard
// circuit breakers, and the Monitor's centralized fallback — run for
// ~220 observation windows under a seeded wire-fault model (latency,
// dropped windows, shard crashes that lose state, partitions that
// keep it). Three monitors consume the identical snapshot stream:
//
//   - central:    the in-process centralized characterizer — the oracle
//   - inproc:     the in-process distributed directory
//   - networked:  WithDirectory over the faulty wire
//
// The pinned contract: Observe never errors on shard unavailability,
// the verdict surface is identical tick for tick whatever the fleet
// weather, a window served over the wire is byte-identical to the
// in-process distributed outcome, and a degraded window is
// byte-identical to the centralized one. The breaker must actually
// cycle (open on the long outages, rejoin after them) for the run to
// count.

import (
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anomalia"

	"anomalia/internal/dirnet"
	"anomalia/internal/netsim"
	"anomalia/internal/sets"
)

// soakWire is the faulty transport between the client and its shard
// fleet: per-window wire faults from a netsim.WireInjector decide, per
// shard, whether dials succeed, stall, or the shard is gone.
type soakWire struct {
	mu      sync.Mutex
	servers []*dirnet.Server
	faults  []netsim.WireFault
	conns   [][]net.Conn
	latency time.Duration
}

func newSoakWire(shards int, latency time.Duration) *soakWire {
	w := &soakWire{
		servers: make([]*dirnet.Server, shards),
		faults:  make([]netsim.WireFault, shards),
		conns:   make([][]net.Conn, shards),
		latency: latency,
	}
	for i := range w.servers {
		w.servers[i] = dirnet.NewServer()
	}
	return w
}

// addrs returns the synthetic shard addresses the dial func resolves.
func (w *soakWire) addrs() []string {
	out := make([]string, len(w.servers))
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

// apply moves the wire to the next window's fault vector: a shard
// entering Down crashed and comes back as a fresh server, while a
// partitioned shard keeps running; any shard that is unreachable or
// dropping this window also has its established connections severed
// (a partition cuts live flows, not just new dials).
func (w *soakWire) apply(faults []netsim.WireFault) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, f := range faults {
		if f.Down && !w.faults[i].Down {
			w.servers[i].Close()
			w.servers[i] = dirnet.NewServer()
		}
		if f.Drop || f.Unreachable() {
			for _, c := range w.conns[i] {
				c.Close()
			}
			w.conns[i] = nil
		}
		w.faults[i] = f
	}
}

// dial opens an in-process pipe to the shard, subject to the window's
// fault: unreachable and dropping shards refuse, slow ones pay the
// configured latency first.
func (w *soakWire) dial(addr string) (net.Conn, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(addr, "shard-"))
	if err != nil || i < 0 || i >= len(w.servers) {
		return nil, fmt.Errorf("unknown shard %q", addr)
	}
	w.mu.Lock()
	f := w.faults[i]
	w.mu.Unlock()
	if f.Unreachable() || f.Drop {
		return nil, fmt.Errorf("shard %d: window fault %+v", i, f)
	}
	if f.Slow {
		time.Sleep(w.latency)
	}
	c1, c2 := net.Pipe()
	w.mu.Lock()
	srv := w.servers[i]
	w.conns[i] = append(w.conns[i], c1)
	w.mu.Unlock()
	go srv.HandleConn(c2)
	return c1, nil
}

func (w *soakWire) closeAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, srv := range w.servers {
		srv.Close()
	}
}

func TestNetworkedSoak(t *testing.T) {
	t.Parallel()

	const (
		aggs      = 2
		dslams    = 2
		gws       = 8
		services  = 2
		nGateways = aggs * dslams * gws
		ticks     = 220
		shards    = 3
	)
	simNet, err := netsim.New(netsim.Config{
		Aggregations:     aggs,
		DSLAMsPerAgg:     dslams,
		GatewaysPerDSLAM: gws,
		Services:         services,
		BaseQoS:          0.95,
		Noise:            0.004,
		Seed:             4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same dense fault rotation the distributed soak uses: an
	// abnormal window every few ticks, so the wire stack is exercised
	// continuously, including all through the outages below.
	var schedule []netsim.ScheduledFault
	for tick := 8; tick < ticks-4; tick += 6 {
		var f netsim.Fault
		switch (tick / 6) % 3 {
		case 0:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelDSLAM, Index: (tick / 6) % (aggs * dslams)}, Severity: 0.3}
		case 1:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelGateway, Index: (tick * 7) % nGateways}, Severity: 0.5}
		default:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelAggregation, Index: (tick / 6) % aggs}, Severity: 0.25}
		}
		schedule = append(schedule, netsim.ScheduledFault{Fault: f, Start: tick, Duration: 1 + tick%2})
	}
	runner, err := netsim.NewRunner(simNet, schedule)
	if err != nil {
		t.Fatal(err)
	}

	// Wire weather: background drop/latency noise, a long shard-0 crash
	// (state lost), a shard-2 partition (state kept), a shard-1 crash,
	// and a full-fleet partition — every abnormal window inside it must
	// degrade, and the fleet must heal afterwards on its own.
	wire := newSoakWire(shards, 200*time.Microsecond)
	defer wire.closeAll()
	inj, err := netsim.NewWireInjector(netsim.WireConfig{
		Seed:     31,
		Shards:   shards,
		DropProb: 0.05,
		SlowProb: 0.12,
		Latency:  200 * time.Microsecond,
		Crashes: []netsim.WireOutage{
			{Shard: 0, Start: 40, End: 80},
			{Shard: 1, Start: 120, End: 150},
		},
		Partitions: []netsim.WireOutage{
			{Shard: 2, Start: 90, End: 110},
			{Shard: 0, Start: 160, End: 172},
			{Shard: 1, Start: 160, End: 172},
			{Shard: 2, Start: 160, End: 172},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	opts := []anomalia.Option{anomalia.WithRadius(0.03), anomalia.WithTau(3)}
	central, err := anomalia.NewMonitor(nGateways, services, opts...)
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := anomalia.NewMonitor(nGateways, services,
		append(opts, anomalia.WithDistributed(true))...)
	if err != nil {
		t.Fatal(err)
	}
	networked, err := anomalia.NewMonitor(nGateways, services,
		append(opts, anomalia.WithDirectory(anomalia.DirectoryConfig{
			Addrs:           wire.addrs(),
			Dial:            wire.dial,
			MaxRetries:      1,
			BackoffBase:     time.Millisecond,
			BackoffCap:      4 * time.Millisecond,
			BreakerFails:    2,
			BreakerCooldown: 2,
			Seed:            7,
		}))...)
	if err != nil {
		t.Fatal(err)
	}

	var (
		abnormalWindows  int
		fullFleetWindows int
		lastDegraded     int64
	)
	for tick := 0; tick < ticks; tick++ {
		wire.apply(inj.Step())
		st, _, err := runner.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		snapshot := make([][]float64, nGateways)
		for g := 0; g < nGateways; g++ {
			snapshot[g] = st.At(g)
		}
		wantCentral, err := central.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d centralized: %v", tick, err)
		}
		wantDist, err := inproc.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d in-process distributed: %v", tick, err)
		}
		got, err := networked.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d: Observe must absorb every wire fault, got: %v", tick, err)
		}
		if (wantCentral == nil) != (got == nil) {
			t.Fatalf("tick %d: networked detection diverged (central=%v networked=%v)",
				tick, wantCentral != nil, got != nil)
		}
		if wantCentral == nil {
			continue
		}
		abnormalWindows++
		if !sets.EqualInts(got.Massive, wantCentral.Massive) ||
			!sets.EqualInts(got.Isolated, wantCentral.Isolated) ||
			!sets.EqualInts(got.Unresolved, wantCentral.Unresolved) {
			t.Fatalf("tick %d: verdicts diverged from centralized oracle:\nwant M=%v I=%v U=%v\ngot  M=%v I=%v U=%v",
				tick, wantCentral.Massive, wantCentral.Isolated, wantCentral.Unresolved,
				got.Massive, got.Isolated, got.Unresolved)
		}
		// Stronger than the verdict sets: the whole outcome must be
		// byte-identical to the matching oracle — the in-process
		// distributed one when the window went over the wire, the
		// centralized one when it degraded.
		ds := networked.DirStats()
		if ds.Degraded == lastDegraded {
			if !reflect.DeepEqual(got, wantDist) {
				t.Fatalf("tick %d: networked window differs from in-process distributed:\nwant %+v\ngot  %+v", tick, wantDist, got)
			}
		} else {
			if !reflect.DeepEqual(got, wantCentral) {
				t.Fatalf("tick %d: degraded window differs from centralized:\nwant %+v\ngot  %+v", tick, wantCentral, got)
			}
		}
		lastDegraded = ds.Degraded
		// Inside the full-fleet partition no shard is reachable: the
		// window cannot have been served over the wire.
		if tick >= 160 && tick < 172 {
			fullFleetWindows++
			if got.Dist != nil {
				t.Fatalf("tick %d: window decided over the wire inside the full-fleet partition", tick)
			}
		}
	}

	if abnormalWindows < 30 {
		t.Fatalf("only %d abnormal windows in %d ticks — the soak did not stress the wire", abnormalWindows, ticks)
	}
	if fullFleetWindows == 0 {
		t.Fatal("no abnormal window fell inside the full-fleet partition — the blackout was not exercised")
	}
	ds := networked.DirStats()
	if ds.Windows != int64(abnormalWindows) {
		t.Fatalf("DirStats.Windows = %d, want %d", ds.Windows, abnormalWindows)
	}
	if ds.Networked == 0 || ds.Degraded == 0 {
		t.Fatalf("DirStats = %+v: the soak must see both networked and degraded windows", ds)
	}
	if ds.Networked+ds.Degraded != ds.Windows {
		t.Fatalf("DirStats ledger does not balance: %+v", ds)
	}
	if ds.BreakerOpens == 0 {
		t.Fatalf("DirStats = %+v: the long outages never opened a breaker", ds)
	}
	if ds.Rejoins == 0 {
		t.Fatalf("DirStats = %+v: no shard ever rejoined after an outage", ds)
	}
	if ds.BytesSent == 0 || ds.BytesReceived == 0 || ds.RoundTrips == 0 {
		t.Fatalf("DirStats = %+v: no wire traffic recorded", ds)
	}
	ws := inj.Stats()
	if ws.CrashedWins == 0 || ws.PartedWins == 0 || ws.Dropped == 0 || ws.Slowed == 0 {
		t.Fatalf("wire injector stats = %+v: the fault model did not fire all fault kinds", ws)
	}
}

// TestDirectoryConfigMirrorsDirnet: the Monitor hands its
// DirectoryConfig to the wire client as one type conversion, so the
// two types must keep identical field sets. This test stops compiling
// the moment a field is added to, removed from or retyped in either.
func TestDirectoryConfigMirrorsDirnet(t *testing.T) {
	dc := anomalia.DirectoryConfig{Addrs: []string{"a:1"}, MaxRetries: 3, Seed: 9}
	if back := anomalia.DirectoryConfig(dirnet.Config(dc)); back.Addrs[0] != "a:1" || back.MaxRetries != 3 || back.Seed != 9 {
		t.Fatalf("round trip through dirnet.Config changed the config: %+v", back)
	}
}
