package dirnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/motion"
	"anomalia/internal/stats"
)

// breaker states of one shard.
type breakerState uint8

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

// shard is the client's view of one directory server.
type shard struct {
	addr string
	conn net.Conn
	rd   *bufio.Reader
	// seq is the window the server last confirmed holding for this
	// client (0 = unsynced): the single-device reads go to a shard that
	// holds the last good window.
	seq uint64
	// Circuit breaker: fails counts consecutive transport failures
	// while closed; cooldown counts the abnormal windows left before an
	// open breaker half-opens with a single probe.
	state    breakerState
	fails    int
	cooldown int
}

// Client drives a fleet of directory shard servers from the Monitor's
// decision path. Every shard hosts a full directory replica; each
// abnormal window the client sends every reachable shard the same
// msgInit, carrying the window's m abnormal rows, partitions the
// sorted abnormal set contiguously across the shards, and merges
// their decision slices in device order — so the output is
// byte-identical to dist.DecideAll however many shards participate,
// and a breaker-open shard's slice fails over to the survivors.
//
// Failure semantics: a request retries up to MaxRetries times with
// exponential backoff and full jitter; a request that exhausts its
// budget counts one breaker failure, and BreakerFails consecutive
// failures open the shard's breaker for BreakerCooldown abnormal
// windows, after which one half-open probe (an Init carrying the
// current window) decides rejoin vs re-open. If any required shard
// fails past its budget the whole window returns ErrUnavailable and
// the caller degrades to centralized characterization — verdicts
// unchanged, one DirStats degradation counted.
//
// Client is not safe for concurrent use (neither is the Monitor that
// owns it).
type Client struct {
	cfg    Config
	sleep  func(time.Duration) // waits out a retry backoff; tests stub it
	shards []*shard
	window uint64 // monotone per-DecideWindow counter (wire seq)
	// lastGood is the seq of the last window every decision was served
	// from — the window View and Decide read.
	lastGood uint64
	rng      *stats.RNG
	// st accumulates the lifetime wire counters; stMu guards it so a
	// stats snapshot (Monitor.DirStats, a metrics scrape) can run on
	// another goroutine while a window is in flight. Everything else on
	// the client keeps the single-caller contract.
	stMu sync.Mutex
	st   Stats
	enc  []byte    // request scratch
	in   []byte    // response scratch
	rows []float64 // window row scratch
}

// NewClient validates the configuration, applies defaults, and returns
// a client. No connection is opened until the first window.
func NewClient(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("no directory addresses: %w", ErrConfig)
	}
	if cfg.MaxRetries < 0 || cfg.BreakerFails < 0 || cfg.BreakerCooldown < 0 {
		return nil, fmt.Errorf("negative retry/breaker budget: %w", ErrConfig)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	if cfg.BreakerFails == 0 {
		cfg.BreakerFails = DefaultBreakerFails
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.Dial == nil {
		timeout := cfg.DialTimeout
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c := &Client{
		cfg:    cfg,
		sleep:  time.Sleep,
		shards: make([]*shard, len(cfg.Addrs)),
		rng:    stats.NewRNG(cfg.Seed),
	}
	for i, addr := range cfg.Addrs {
		c.shards[i] = &shard{addr: addr}
	}
	return c, nil
}

// Stats returns the lifetime wire counters. Safe to call from any
// goroutine, including concurrently with an in-flight window.
func (c *Client) Stats() Stats {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	return c.st
}

// count applies one mutation to the wire counters under the stats
// lock — the only way request paths touch c.st.
func (c *Client) count(f func(*Stats)) {
	c.stMu.Lock()
	f(&c.st)
	c.stMu.Unlock()
}

// Close drops every connection. The client stays usable — the next
// window redials.
func (c *Client) Close() {
	for _, s := range c.shards {
		c.dropConn(s)
	}
}

// Reset closes connections and forgets every shard's sync state and
// breaker, keeping the lifetime Stats — the Monitor.Reset contract.
func (c *Client) Reset() {
	c.Close()
	for _, s := range c.shards {
		s.seq = 0
		s.state = brClosed
		s.fails = 0
		s.cooldown = 0
	}
	c.window = 0
	c.lastGood = 0
}

func (c *Client) dropConn(s *shard) {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.rd = nil
	}
}

// DecideWindow decides one abnormal window over the wire: pair is the
// full-population state pair, abnormal the sorted abnormal set, cfg
// the characterization config. On success the decisions come back in
// device order with the summed billed Stats, exactly what
// dist.DecideAll returns in-process. On ErrUnavailable no usable
// decision set exists and the caller must fall back centralized; the
// reachable shards keep whatever sync they reached and recover on
// later windows without operator action.
func (c *Client) DecideWindow(pair *motion.Pair, abnormal []int, cfg core.Config) ([]dist.Decision, dist.Stats, error) {
	for i, id := range abnormal {
		if i > 0 && id <= abnormal[i-1] {
			return nil, dist.Stats{}, fmt.Errorf("abnormal set not sorted: %w", ErrConfig)
		}
		if id < 0 || id >= pair.N() {
			return nil, dist.Stats{}, fmt.Errorf("abnormal device %d outside population of %d: %w", id, pair.N(), ErrConfig)
		}
	}
	c.window++
	seq := c.window

	participants := c.rotation()
	if len(participants) == 0 {
		return nil, dist.Stats{}, fmt.Errorf("all %d shard breakers open: %w", len(c.shards), ErrUnavailable)
	}

	// Encode the window once; every shard gets the same msgInit.
	w := windowOf(seq, pair, abnormal, cfg.R, c.rows)
	c.rows = w.prev[:0]
	body := appendWindow(c.enc[:0], w)
	c.enc = body

	// Half-open probes first: one Init attempt each, no retries. A
	// probe that succeeds rejoins the rotation for this very window; a
	// probe that fails re-opens without degrading the window.
	synced := participants[:0]
	for _, s := range participants {
		if s.state == brHalfOpen {
			if c.syncShard(s, seq, body, true) != nil {
				continue
			}
			c.count(func(st *Stats) { st.Rejoins++ })
			s.state = brClosed
			s.fails = 0
			synced = append(synced, s)
			continue
		}
		if err := c.syncShard(s, seq, body, false); err != nil {
			if isAppError(err) {
				// Deterministic application rejection (e.g. a malformed
				// abnormal set): retrying or failing over cannot fix it, and
				// it says nothing about the shard's health. Degrade the
				// window; the shard resyncs naturally via seq mismatch.
				return nil, dist.Stats{}, err
			}
			return nil, dist.Stats{}, fmt.Errorf("shard %s: %w: %w", s.addr, ErrUnavailable, err)
		}
		synced = append(synced, s)
	}
	if len(synced) == 0 {
		return nil, dist.Stats{}, fmt.Errorf("no shard survived its half-open probe: %w", ErrUnavailable)
	}

	// Partition the sorted abnormal positions contiguously across the
	// synced shards; merged in shard order the decisions land in device
	// order, matching dist.DecideAll.
	out := make([]dist.Decision, len(abnormal))
	var total dist.Stats
	m := len(abnormal)
	base, rem := m/len(synced), m%len(synced)
	from := 0
	for i, s := range synced {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		to := from + size
		if err := c.decideRange(s, seq, cfg, abnormal, from, out[from:to]); err != nil {
			if isAppError(err) {
				return nil, dist.Stats{}, err
			}
			return nil, dist.Stats{}, fmt.Errorf("shard %s: %w: %w", s.addr, ErrUnavailable, err)
		}
		for _, dec := range out[from:to] {
			total.Add(dec.Stats)
		}
		from = to
	}

	c.lastGood = seq
	return out, total, nil
}

// rotation advances every breaker by one window and returns the shards
// allowed to serve it: closed ones plus open ones whose cooldown just
// expired (now half-open).
func (c *Client) rotation() []*shard {
	avail := make([]*shard, 0, len(c.shards))
	for _, s := range c.shards {
		if s.state == brOpen {
			if s.cooldown--; s.cooldown > 0 {
				continue
			}
			s.state = brHalfOpen
		}
		avail = append(avail, s)
	}
	return avail
}

// windowOf assembles the wire window: the abnormal devices' rows in
// id order, prev then cur, in one slab that reuses rows' capacity.
func windowOf(seq uint64, pair *motion.Pair, abnormal []int, r float64, rows []float64) windowMsg {
	d := pair.Dim()
	size := len(abnormal) * d
	rows = slices.Grow(rows[:0], 2*size)[:2*size]
	w := windowMsg{
		seq:  seq,
		r:    r,
		n:    pair.N(),
		d:    d,
		ids:  abnormal,
		prev: rows[:size],
		cur:  rows[size:],
	}
	for i, id := range abnormal {
		copy(w.prev[i*d:(i+1)*d], pair.Prev.At(id))
		copy(w.cur[i*d:(i+1)*d], pair.Cur.At(id))
	}
	return w
}

// syncShard sends one shard the window's pre-encoded msgInit frame.
// probe=true is the half-open path: a single attempt.
func (c *Client) syncShard(s *shard, seq uint64, body []byte, probe bool) error {
	attempts := 1 + c.cfg.MaxRetries
	if probe {
		attempts = 1
	}
	if _, err := c.request(s, body, attempts); err != nil {
		if !isAppError(err) {
			c.noteFailure(s)
		}
		return err
	}
	s.fails = 0
	s.seq = seq
	return nil
}

// decideRange fetches the decisions for positions [from, from+len(dst))
// of the window's sorted abnormal set from one synced shard into dst. A
// response that decodes to anything but one valid decision per position
// counts against the shard like a transport fault.
func (c *Client) decideRange(s *shard, seq uint64, cfg core.Config, abnormal []int, from int, dst []dist.Decision) error {
	c.enc = appendDecideAll(c.enc[:0], seq, cfg, from, from+len(dst))
	resp, err := c.request(s, c.enc, 1+c.cfg.MaxRetries)
	if err != nil {
		if err == errNeedInit {
			// The server lost the window between sync and decide (crash in
			// the gap). Re-syncing would hand back a torn window; degrade
			// and let the next window rebuild.
			s.seq = 0
			err = fmt.Errorf("window lost between sync and decide: %w", errNeedInit)
		}
		if !isAppError(err) {
			c.noteFailure(s)
		}
		return err
	}
	if err := decodeWindowDecisions(resp, abnormal, from, dst); err != nil {
		c.noteFailure(s)
		return err
	}
	s.fails = 0
	return nil
}

// decodeWindowDecisions decodes the body of a DecideAll response for
// positions [from, from+len(dst)) of the window's sorted abnormal set
// into dst. It returns an error unless the body holds exactly one
// decision per position, every motion of its table passes checkMotion,
// and each decision passes checkDecision. Each table motion is checked
// once, however many decisions refer to it.
func decodeWindowDecisions(body []byte, abnormal []int, from int, dst []dist.Decision) error {
	table, err := decodeDecisions(body, dst)
	if err != nil {
		return err
	}
	for _, mo := range table {
		if err := checkMotion(mo, abnormal); err != nil {
			return fmt.Errorf("dirnet: motion table: %w", err)
		}
	}
	for i := range dst {
		if err := checkDecision(dst[i].Result, abnormal[from+i]); err != nil {
			return err
		}
	}
	return nil
}

// checkDecision rejects a decision no directory shard could have
// computed for device: one for another device, a class or rule outside
// core's enumerations, or a dense motion that leaves the device out.
// Each would otherwise become a silently wrong verdict. The motions
// themselves are checkMotion's, once per table entry.
func checkDecision(res core.Result, device int) error {
	if res.Device != device {
		return fmt.Errorf("dirnet: decision for device %d in the slot of device %d", res.Device, device)
	}
	if res.Class < core.ClassIsolated || res.Class > core.ClassUnresolved {
		return fmt.Errorf("dirnet: device %d: class %d out of range", device, res.Class)
	}
	if res.Rule < core.RuleNone || res.Rule > core.RuleTheorem7 {
		return fmt.Errorf("dirnet: device %d: rule %d out of range", device, res.Rule)
	}
	for _, mo := range res.Dense {
		if _, ok := slices.BinarySearch(mo, device); !ok {
			return fmt.Errorf("dirnet: device %d: dense motion %v leaves the device out", device, mo)
		}
	}
	return nil
}

// checkMotion rejects a motion that is not strictly increasing or holds
// a device outside the sorted abnormal set. Each member is searched for
// past the previous one's position.
func checkMotion(mo, abnormal []int) error {
	lo := 0
	for i, id := range mo {
		if i > 0 && id <= mo[i-1] {
			return fmt.Errorf("dense motion %v not sorted", mo)
		}
		p, ok := slices.BinarySearch(abnormal[lo:], id)
		if !ok {
			return fmt.Errorf("dense motion member %d outside the window's abnormal set", id)
		}
		lo += p + 1
	}
	return nil
}

// View fetches one device's raw 4r view from the first synced shard —
// the single-device read path (parity and debugging; the Monitor's
// window flow goes through DecideWindow).
func (c *Client) View(device int) ([]int, dist.Stats, error) {
	s := c.syncedShard()
	if s == nil {
		return nil, dist.Stats{}, fmt.Errorf("no synced shard: %w", ErrUnavailable)
	}
	c.enc = appendDecide(c.enc[:0], msgView, c.lastGood, core.Config{}, device)
	resp, err := c.request(s, c.enc, 1+c.cfg.MaxRetries)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	cur := &cursor{b: resp}
	st := dist.Stats{
		Messages:     int(cur.u32()),
		Trajectories: int(cur.u32()),
		ViewSize:     int(cur.u32()),
	}
	view := cur.ids(cur.count(4))
	if err := cur.err(); err != nil {
		return nil, dist.Stats{}, err
	}
	return view, st, nil
}

// Decide fetches one device's decision from the first synced shard.
func (c *Client) Decide(device int, cfg core.Config) (dist.Decision, error) {
	s := c.syncedShard()
	if s == nil {
		return dist.Decision{}, fmt.Errorf("no synced shard: %w", ErrUnavailable)
	}
	c.enc = appendDecide(c.enc[:0], msgDecide, c.lastGood, cfg, device)
	resp, err := c.request(s, c.enc, 1+c.cfg.MaxRetries)
	if err != nil {
		return dist.Decision{}, err
	}
	var dec [1]dist.Decision
	if _, err := decodeDecisions(resp, dec[:]); err != nil {
		return dist.Decision{}, err
	}
	return dec[0], nil
}

func (c *Client) syncedShard() *shard {
	if c.lastGood == 0 {
		return nil
	}
	for _, s := range c.shards {
		if s.state == brClosed && s.seq == c.lastGood {
			return s
		}
	}
	return nil
}

// noteFailure charges one breaker failure to the shard, opening it at
// the threshold.
func (c *Client) noteFailure(s *shard) {
	s.fails++
	if s.state == brHalfOpen || (s.state == brClosed && s.fails >= c.cfg.BreakerFails) {
		s.state = brOpen
		s.cooldown = c.cfg.BreakerCooldown
		s.fails = 0
		c.count(func(st *Stats) { st.BreakerOpens++ })
	}
}

// isAppError reports whether the error is a deterministic application
// response (a decoded statusErr) rather than a transport fault:
// retries cannot fix it and it says nothing about shard health.
func isAppError(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}

// request performs one request with bounded retries: each attempt
// (re)dials if needed, arms the per-request deadline, writes the
// frame, and reads the response; a transport fault drops the
// connection and backs off with full jitter before the next attempt.
// statusNeedInit and statusErr responses return immediately — they are
// answers, not faults.
func (c *Client) request(s *shard, payload []byte, attempts int) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.count(func(st *Stats) { st.Retries++ })
			c.sleep(c.backoff(attempt))
		}
		body, err := c.attempt(s, payload)
		if err == nil || err == errNeedInit || isAppError(err) {
			return body, err
		}
		lastErr = err
	}
	c.count(func(st *Stats) { st.Failures++ })
	return nil, lastErr
}

// backoff returns the full-jitter sleep before retry attempt i (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	limit := c.cfg.BackoffBase << (attempt - 1)
	if limit > c.cfg.BackoffCap || limit <= 0 {
		limit = c.cfg.BackoffCap
	}
	return time.Duration(c.rng.Float64() * float64(limit))
}

// attempt performs one wire exchange.
func (c *Client) attempt(s *shard, payload []byte) ([]byte, error) {
	if s.conn == nil {
		conn, err := c.cfg.Dial(s.addr)
		if err != nil {
			return nil, err
		}
		s.conn = conn
		s.rd = bufio.NewReaderSize(conn, 1<<16)
	}
	s.conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	sent, err := writeFrame(s.conn, payload)
	if err != nil {
		c.dropConn(s)
		return nil, err
	}
	c.count(func(st *Stats) { st.BytesSent += int64(sent) })
	resp, rcvd, err := readFrame(s.rd, c.in)
	c.in = resp
	if err != nil {
		// The response (if it ever lands) would desynchronize the stream;
		// the conn is dead to us either way.
		c.dropConn(s)
		return nil, err
	}
	c.count(func(st *Stats) {
		st.BytesReceived += int64(rcvd)
		st.RoundTrips++
	})
	body, err := decodeStatus(resp)
	if err != nil && err != errNeedInit && !isAppError(err) {
		// Malformed response: treat as transport fault.
		c.dropConn(s)
	}
	return body, err
}
