package dirnet

import (
	"errors"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/motion"
	"anomalia/internal/motiontable"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// pipeNet is an in-process transport: one Server per address, dialed
// over net.Pipe, with per-address fault switches.
type pipeNet struct {
	mu      sync.Mutex
	servers map[string]*Server
	refuse  map[string]bool
	dials   map[string]int
	conns   map[string][]net.Conn
}

func newPipeNet(addrs ...string) *pipeNet {
	p := &pipeNet{
		servers: make(map[string]*Server),
		refuse:  make(map[string]bool),
		dials:   make(map[string]int),
		conns:   make(map[string][]net.Conn),
	}
	for _, a := range addrs {
		p.servers[a] = NewServer()
	}
	return p
}

func (p *pipeNet) dial(addr string) (net.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dials[addr]++
	if p.refuse[addr] {
		return nil, errors.New("pipenet: connection refused")
	}
	srv, ok := p.servers[addr]
	if !ok {
		return nil, errors.New("pipenet: no such host")
	}
	c1, c2 := net.Pipe()
	go srv.HandleConn(c2)
	p.conns[addr] = append(p.conns[addr], c1)
	return c1, nil
}

// setRefuse toggles dial refusal and, when turning the link off, also
// severs the live connections — a partition cuts established flows too.
func (p *pipeNet) setRefuse(addr string, v bool) {
	p.mu.Lock()
	p.refuse[addr] = v
	if v {
		for _, c := range p.conns[addr] {
			c.Close()
		}
		p.conns[addr] = nil
	}
	p.mu.Unlock()
}

// crash replaces the server behind addr with a fresh one, dropping its
// connections, like a process restart.
func (p *pipeNet) crash(addr string) {
	p.mu.Lock()
	old := p.servers[addr]
	p.servers[addr] = NewServer()
	p.mu.Unlock()
	old.Close()
}

func (p *pipeNet) dialCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials[addr]
}

func testClient(t *testing.T, pn *pipeNet, addrs []string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Addrs:          addrs,
		Dial:           pn.dial,
		RequestTimeout: 2 * time.Second,
		Seed:           1,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	t.Cleanup(c.Close)
	return c
}

// windows generates a deterministic sequence of observation windows:
// full-population pairs with an evolving abnormal set.
type windowGen struct {
	n, d int
	rng  *stats.RNG
	cur  *space.State
}

func newWindowGen(t *testing.T, n, d int, seed int64) *windowGen {
	t.Helper()
	s, err := space.NewState(n, d)
	if err != nil {
		t.Fatal(err)
	}
	g := &windowGen{n: n, d: d, rng: stats.NewRNG(seed), cur: s}
	s.Uniform(g.rng.Float64)
	return g
}

// next evolves the population and returns the window pair with its
// sorted abnormal set: a contiguous cluster plus scattered singletons.
func (g *windowGen) next() (*motion.Pair, []int) {
	prev := g.cur
	cur := prev.Clone()
	// Drift a random subset of devices.
	for i := 0; i < g.n/4; i++ {
		j := int(g.rng.Float64() * float64(g.n))
		p := cur.At(j)
		row := make([]float64, g.d)
		for k := range row {
			row[k] = p[k] + (g.rng.Float64()-0.5)*0.08
		}
		cur.Set(j, row)
	}
	start := int(g.rng.Float64() * float64(g.n-20))
	seen := make(map[int]bool, 16)
	for j := start; j < start+12; j++ {
		seen[j] = true
	}
	for i := 0; i < 8; i++ {
		seen[int(g.rng.Float64()*float64(g.n))] = true
	}
	abnormal := make([]int, 0, len(seen))
	for j := range seen {
		abnormal = append(abnormal, j)
	}
	sort.Ints(abnormal)
	g.cur = cur
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		panic(err)
	}
	return pair, abnormal
}

// oracleDecide mirrors the server fleet in-process: one directory per
// window, as the Monitor builds them.
func oracleDecide(t *testing.T, pair *motion.Pair, abnormal []int, cfg core.Config) ([]dist.Decision, dist.Stats) {
	t.Helper()
	dir, err := dist.NewDirectory(pair, abnormal, cfg.R)
	if err != nil {
		t.Fatal(err)
	}
	decs, total, err := dist.DecideAll(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return decs, total
}

// sameDecisions compares everything the wire carries: J/L (core's
// diagnostic neighbourhood split) deliberately stay server-side, so
// they are masked out of the in-process reference.
func sameDecisions(t *testing.T, got, want []dist.Decision, wantTotal, gotTotal dist.Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.Result.J, w.Result.L = nil, nil
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("decision %d:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
	if gotTotal != wantTotal {
		t.Fatalf("total stats %+v, want %+v", gotTotal, wantTotal)
	}
}

var testCfg = core.Config{R: 0.05, Tau: 3, Exact: true}

// clusteredWindow builds one window over n devices in d = 2, grouped
// into contiguous-id clusters of size devices, each within r/2 (uniform
// norm) of a uniform centre — restriction R2's r-consistent clique. The
// first faulty clusters shift coherently by 0.06-0.1 per axis and form
// the sorted abnormal set; the rest stay put.
func clusteredWindow(tb testing.TB, n, size, faulty int, r float64, seed int64) (*motion.Pair, []int) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	prev, err := space.NewState(n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	cur := prev.Clone()
	var abnormal []int
	p, q := make(space.Point, 2), make(space.Point, 2)
	for lo := 0; lo < n; lo += size {
		centre := [2]float64{0.05 + 0.75*rng.Float64(), 0.05 + 0.75*rng.Float64()}
		var shift [2]float64
		if lo/size < faulty {
			shift = [2]float64{0.06 + 0.04*rng.Float64(), 0.06 + 0.04*rng.Float64()}
		}
		for j := lo; j < min(lo+size, n); j++ {
			for c := range p {
				p[c] = centre[c] + (rng.Float64()-0.5)*r
				q[c] = p[c] + shift[c]
			}
			if err := prev.Set(j, p); err != nil {
				tb.Fatal(err)
			}
			if err := cur.Set(j, q); err != nil {
				tb.Fatal(err)
			}
			if lo/size < faulty {
				abnormal = append(abnormal, j)
			}
		}
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		tb.Fatal(err)
	}
	return pair, abnormal
}

// TestMassEventDecidesWithinDeadline: a window whose abnormal set is
// one 500-device r-consistent cluster — a large DSLAM fault — decides
// over two shards at the default request deadline with no retry and no
// failure, verdict-identical to the in-process directory. Each shard's
// 250-device slice shares one 4r view, so it must be decided as one
// characterizer group to fit the deadline.
func TestMassEventDecidesWithinDeadline(t *testing.T) {
	addrs := []string{"s0", "s1"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, func(cfg *Config) { cfg.RequestTimeout = 0 })
	cfg := core.Config{R: 0.01, Tau: 3, Exact: true}
	pair, abnormal := clusteredWindow(t, 5000, 500, 1, cfg.R, 7)
	got, gotTotal, err := c.DecideWindow(pair, abnormal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("mass event counted wire faults: %+v", st)
	}
	want, wantTotal := oracleDecide(t, pair, abnormal, cfg)
	sameDecisions(t, got, want, wantTotal, gotTotal)
	for _, dec := range got {
		if dec.Result.Class != core.ClassMassive {
			t.Fatalf("device %d: %v, want massive", dec.Result.Device, dec.Result.Class)
		}
	}
}

func TestDecideWindowParityMultiShard(t *testing.T) {
	addrs := []string{"s0", "s1", "s2"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, nil)
	g := newWindowGen(t, 300, 2, 11)
	for w := 0; w < 6; w++ {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		sameDecisions(t, got, want, wantTotal, gotTotal)
	}
	st := c.Stats()
	if st.Retries != 0 || st.Failures != 0 || st.BreakerOpens != 0 {
		t.Fatalf("clean run counted faults: %+v", st)
	}
	if st.RoundTrips == 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("wire counters empty: %+v", st)
	}
	// Every window sends every shard one request: its slice.
	for _, a := range addrs {
		if got := pn.servers[a].Counters().Requests; got != 6 {
			t.Fatalf("server %s answered %d requests over 6 windows, want 6", a, got)
		}
	}
}

// TestRestartedShardServesNextWindow: a shard that crashes between
// windows serves the next one like any other — one request per shard,
// nothing degraded, verdicts unchanged.
func TestRestartedShardServesNextWindow(t *testing.T) {
	addrs := []string{"s0", "s1"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, nil)
	g := newWindowGen(t, 200, 2, 5)
	step := func(w int) {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		sameDecisions(t, got, want, wantTotal, gotTotal)
	}
	step(0)
	step(1)
	// Crash s1: connections dropped. The next window's request redials
	// the fresh server, with no extra round trip.
	pn.crash("s1")
	before := c.Stats().RoundTrips
	step(2)
	if got := pn.servers["s1"].Counters().Requests; got != 1 {
		t.Fatalf("restarted server answered %d requests, want 1", got)
	}
	if rt := c.Stats().RoundTrips - before; rt != 2 {
		t.Fatalf("crash-recovery window took %d round trips, want 2", rt)
	}
	step(3)
}

func TestBreakerOpensFailsOverAndRejoins(t *testing.T) {
	addrs := []string{"s0", "s1"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, func(cfg *Config) {
		cfg.MaxRetries = 1
		cfg.BreakerFails = 2
		cfg.BreakerCooldown = 2
	})
	g := newWindowGen(t, 200, 2, 9)
	decide := func(w int) ([]dist.Decision, dist.Stats, error) {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		if err == nil {
			sameDecisions(t, got, want, wantTotal, gotTotal)
		}
		return got, gotTotal, err
	}
	if _, _, err := decide(0); err != nil {
		t.Fatal(err)
	}

	pn.setRefuse("s1", true)
	// Two windows fail s1's requests past the retry budget and degrade;
	// the second opens the breaker (BreakerFails=2).
	for w := 1; w <= 2; w++ {
		if _, _, err := decide(w); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("window %d: err = %v, want ErrUnavailable", w, err)
		}
	}
	st := c.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 (%+v)", st.BreakerOpens, st)
	}
	if st.Retries == 0 || st.Failures == 0 {
		t.Fatalf("retry/failure counters empty: %+v", st)
	}

	// Breaker open: the next window must succeed on s0 alone — failover
	// — without dialing s1 at all.
	dials := pn.dialCount("s1")
	if _, _, err := decide(3); err != nil {
		t.Fatalf("failover window: %v", err)
	}
	if pn.dialCount("s1") != dials {
		t.Fatal("open breaker still dialed the dead shard")
	}

	// Cooldown expires → half-open probe; still refused → re-open
	// without degrading the window.
	if _, _, err := decide(4); err != nil {
		t.Fatalf("half-open-probe window: %v", err)
	}
	if pn.dialCount("s1") == dials {
		t.Fatal("half-open breaker never probed")
	}
	if st := c.Stats(); st.Rejoins != 0 {
		t.Fatalf("Rejoins = %d before heal", st.Rejoins)
	}

	// Heal; after the cooldown the probe succeeds and the shard rejoins.
	pn.setRefuse("s1", false)
	for w := 5; w <= 7; w++ {
		if _, _, err := decide(w); err != nil {
			t.Fatalf("window %d after heal: %v", w, err)
		}
	}
	if st := c.Stats(); st.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1 (%+v)", st.Rejoins, st)
	}
}

// TestHalfOpenProbeFailureKeepsWindow: a half-open shard whose one
// attempt fails re-opens, and a shard that answered in the same window
// decides its slice too, so the window is not degraded.
func TestHalfOpenProbeFailureKeepsWindow(t *testing.T) {
	addrs := []string{"s0", "s1"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, func(cfg *Config) {
		cfg.MaxRetries = 1
		cfg.BreakerFails = 1
		cfg.BreakerCooldown = 1
	})
	g := newWindowGen(t, 200, 2, 19)
	pn.setRefuse("s1", true)
	pair, abnormal := g.next()
	if _, _, err := c.DecideWindow(pair, abnormal, testCfg); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("opening window: err = %v, want ErrUnavailable", err)
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
	// s1's cooldown expires with the next window while it still refuses.
	before := pn.servers["s0"].Counters().Requests
	pair, abnormal = g.next()
	got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
	if err != nil {
		t.Fatalf("half-open window: %v", err)
	}
	want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
	sameDecisions(t, got, want, wantTotal, gotTotal)
	st := c.Stats()
	if st.Rejoins != 0 || st.BreakerOpens != 2 {
		t.Fatalf("Rejoins = %d, BreakerOpens = %d, want 0 and 2", st.Rejoins, st.BreakerOpens)
	}
	if n := pn.servers["s0"].Counters().Requests - before; n != 2 {
		t.Fatalf("s0 served %d requests in the half-open window, want 2 (its slice and s1's)", n)
	}
}

func TestAllShardsDownDegradesWithoutWedging(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, func(cfg *Config) {
		cfg.MaxRetries = 1
		cfg.BreakerFails = 1
		cfg.BreakerCooldown = 1
	})
	g := newWindowGen(t, 100, 2, 3)
	pn.setRefuse("s0", true)
	for w := 0; w < 4; w++ {
		pair, abnormal := g.next()
		if _, _, err := c.DecideWindow(pair, abnormal, testCfg); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("window %d: err = %v, want ErrUnavailable", w, err)
		}
	}
	// Recovery needs no operator action: heal, wait out the cooldown,
	// and the probe serves the shard's slice.
	pn.setRefuse("s0", false)
	for w := 0; w < 3; w++ {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		if err != nil {
			if w == 0 {
				continue // probe window may still be inside cooldown
			}
			t.Fatalf("window %d after heal: %v", w, err)
		}
		sameDecisions(t, got, want, wantTotal, gotTotal)
	}
}

func TestServerErrorIsNotRetriedAndKeepsBreakerClosed(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, func(cfg *Config) { cfg.BreakerFails = 1 })
	g := newWindowGen(t, 100, 2, 7)
	pair, abnormal := g.next()
	// Out-of-population id: rejected client-side before any wire work.
	bad := append(append([]int(nil), abnormal...), 100+5)
	if _, _, err := c.DecideWindow(pair, bad, testCfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range id: err = %v, want ErrConfig", err)
	}
	// Invalid tau passes the client and hits the server's decide-path
	// validation: a deterministic statusErr — no retry, no breaker
	// charge, not a degradation signal.
	badCfg := testCfg
	badCfg.Tau = 0
	_, _, err := c.DecideWindow(pair, abnormal, badCfg)
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want a server application error", err)
	}
	st := c.Stats()
	if st.Retries != 0 || st.Failures != 0 || st.BreakerOpens != 0 {
		t.Fatalf("app error charged transport counters: %+v", st)
	}
	// The same client recovers on the next clean window.
	pair, abnormal = g.next()
	got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
	sameDecisions(t, got, want, wantTotal, gotTotal)
}

// TestClientResetForcesReinit: a window after Reset redials and
// decides as before.
func TestClientResetForcesReinit(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, nil)
	g := newWindowGen(t, 100, 2, 21)
	pair, abnormal := g.next()
	if _, _, err := c.DecideWindow(pair, abnormal, testCfg); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	pair, abnormal = g.next()
	got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
	sameDecisions(t, got, want, wantTotal, gotTotal)
}

// TestWindowCodecRoundTrip: a request decodes to the window it
// encodes, setRange moves only its range, and every truncation errors.
func TestWindowCodecRoundTrip(t *testing.T) {
	w := windowMsg{
		cfg: core.Config{R: 0.07, Tau: 4, Exact: true, Budget: 9},
		n:   1000, d: 3,
		ids:  []int{3, 17, 999},
		prev: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		cur:  []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
	}
	b := appendWindow(nil, w)
	if b[0] != msgDecideWindow {
		t.Fatalf("request type %#x, want msgDecideWindow", b[0])
	}
	setRange(b, 1, 3)
	w.from, w.to = 1, 3
	var got windowMsg
	if err := decodeWindow(&cursor{b: b, off: 1}, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, w)
	}
	// Truncations at every prefix must error, never panic or hang.
	for cut := 1; cut < len(b); cut++ {
		if err := decodeWindow(&cursor{b: b[:cut], off: 1}, new(windowMsg)); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

// TestDecisionCodecRoundTrip encodes decisions over window-local ids
// and decodes them with every id mapped back to its global device: a
// family's members share one dense slice over the table's motions, a
// motion two families share is listed once, and an empty dense set
// decodes to nil, matching the in-process zero value.
func TestDecisionCodecRoundTrip(t *testing.T) {
	ids := []int{3, 17, 21, 40}
	family := [][]int{{0, 1, 2}, {1, 3}}
	dec := func(device int, dense [][]int) dist.Decision {
		return dist.Decision{
			Result: core.Result{
				Device: device, Class: core.ClassMassive, Rule: core.RuleTheorem6,
				Dense: dense,
				Cost:  core.Cost{MaximalMotions: 4, DenseMotions: len(dense), NeighborsScanned: 7, CollectionsTested: 123},
			},
			Stats: dist.Stats{Messages: 5, Trajectories: 9, ViewSize: 10 + device},
		}
	}
	decs := []dist.Decision{
		dec(0, family[:1]),
		dec(1, family),
		dec(2, [][]int{{0, 1, 2}}), // family[0]'s content in another slice
		dec(3, nil),
	}
	b := appendDecisions(nil, new(motiontable.Table), decs, ids)
	got := make([]dist.Decision, len(decs))
	table, err := decodeDecisions(b, got)
	if err != nil {
		t.Fatal(err)
	}
	wantTable := [][]int{{3, 17, 21}, {17, 40}}
	if !reflect.DeepEqual(table, wantTable) {
		t.Fatalf("table %v, want %v", table, wantTable)
	}
	for i, want := range decs {
		want.Result.Device = ids[want.Result.Device]
		want.Result.Dense = nil
		for _, mo := range decs[i].Result.Dense {
			var global []int
			for _, id := range mo {
				global = append(global, ids[id])
			}
			want.Result.Dense = append(want.Result.Dense, global)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("decision %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if &got[0].Result.Dense[0] != &got[2].Result.Dense[0] || &got[0].Result.Dense[0][0] != &table[0][0] || &got[1].Result.Dense[0][0] != &table[0][0] {
		t.Fatal("equal ref lists or shared motions decoded into separate slices")
	}
	if got[3].Result.Dense != nil {
		t.Fatalf("empty dense decoded non-nil: %+v", got[3].Result.Dense)
	}
	// Truncations at every prefix must error, never panic.
	for cut := range len(b) {
		if _, err := decodeDecisions(b[:cut], make([]dist.Decision, len(decs))); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := decodeDecisions(b, make([]dist.Decision, len(decs)-1)); err == nil {
		t.Fatal("response for 4 decisions accepted for 3")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewClient(Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("no addrs: err = %v", err)
	}
	if _, err := NewClient(Config{Addrs: []string{"x"}, MaxRetries: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative retries: err = %v", err)
	}
	if _, err := NewClient(Config{Addrs: []string{"x"}, BreakerFails: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative breaker: err = %v", err)
	}
}

func TestUnsortedAbnormalRejected(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, nil)
	g := newWindowGen(t, 100, 2, 2)
	pair, _ := g.next()
	if _, _, err := c.DecideWindow(pair, []int{5, 3}, testCfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("unsorted abnormal: err = %v, want ErrConfig", err)
	}
}

// TestServeOverTCP exercises the real listener path end to end.
func TestServeOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	go srv.Serve(l)
	defer l.Close()
	defer srv.Close()

	c, err := NewClient(Config{Addrs: []string{l.Addr().String()}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := newWindowGen(t, 120, 2, 17)
	for w := 0; w < 3; w++ {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		sameDecisions(t, got, want, wantTotal, gotTotal)
	}
}

// TestSteadyWindowsOneConnection pins the one-request window protocol
// in steady state: every window goes over the shard's one persistent
// connection as a single request, and verdicts stay identical.
func TestSteadyWindowsOneConnection(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	c := testClient(t, pn, addrs, nil)
	g := newWindowGen(t, 250, 2, 29)
	for w := 0; w < 5; w++ {
		pair, abnormal := g.next()
		got, gotTotal, err := c.DecideWindow(pair, abnormal, testCfg)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want, wantTotal := oracleDecide(t, pair, abnormal, testCfg)
		sameDecisions(t, got, want, wantTotal, gotTotal)
	}
	st := c.Stats()
	if st.BytesSent == 0 {
		t.Fatal("no bytes sent")
	}
	if st.RoundTrips != 5 {
		t.Fatalf("%d round trips over 5 windows, want 5 (one request each)", st.RoundTrips)
	}
	if dials := pn.dialCount("s0"); dials != 1 {
		t.Fatalf("steady stream redialed %d times, want 1 persistent conn", dials)
	}
	if got := pn.servers["s0"].Counters().Requests; got != 5 {
		t.Fatalf("server answered %d requests, want 5", got)
	}
}

// TestConnectionsDecideConcurrently: two clients, each on its own
// connection to one server, decide windows of different sizes at the
// same time, each connection refilling its own session. Every decision
// equals the in-process oracle's, so neither connection decides in
// memory the other is using. CI repeats it under the race detector.
func TestConnectionsDecideConcurrently(t *testing.T) {
	addrs := []string{"s0"}
	pn := newPipeNet(addrs...)
	const windows = 6
	type window struct {
		pair     *motion.Pair
		abnormal []int
		got      []dist.Decision
		total    dist.Stats
		err      error
	}
	var runs [2][windows]window
	for ci, g := range []*windowGen{newWindowGen(t, 300, 2, 11), newWindowGen(t, 120, 3, 17)} {
		for w := range runs[ci] {
			runs[ci][w].pair, runs[ci][w].abnormal = g.next()
		}
	}
	var wg sync.WaitGroup
	for ci := range runs {
		c := testClient(t, pn, addrs, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range runs[ci] {
				win := &runs[ci][w]
				var got []dist.Decision
				got, win.total, win.err = c.DecideWindow(win.pair, win.abnormal, testCfg)
				win.got = slices.Clone(got)
			}
		}()
	}
	wg.Wait()
	for ci := range runs {
		for w, win := range runs[ci] {
			if win.err != nil {
				t.Fatalf("client %d window %d: %v", ci, w, win.err)
			}
			want, wantTotal := oracleDecide(t, win.pair, win.abnormal, testCfg)
			sameDecisions(t, win.got, want, wantTotal, win.total)
		}
	}
	if got := pn.servers["s0"].Counters().Connections; got != 2 {
		t.Fatalf("server accepted %d connections, want 2", got)
	}
}
