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
	"anomalia/internal/slab"
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
	// Circuit breaker: fails counts consecutive transport failures
	// while closed; cooldown counts the abnormal windows left before an
	// open breaker half-opens with a single probe.
	state    breakerState
	fails    int
	cooldown int
}

// Client drives a fleet of directory shard servers from the Monitor's
// decision path. Every shard hosts a full directory replica. Each
// abnormal window the client encodes one request carrying the window's
// m abnormal rows, partitions the sorted abnormal set contiguously
// across the shards in rotation, sends each shard the request with its
// slice's range patched in, and merges the slices in device order — so
// the output is byte-identical to dist.DecideAll however many shards
// participate. A window is one request and one response per shard it
// is sent to.
//
// Failure semantics: a request retries up to MaxRetries times with
// exponential backoff and full jitter; a request that exhausts its
// budget counts one breaker failure, and BreakerFails consecutive
// failures open the shard's breaker for BreakerCooldown abnormal
// windows. The shard then half-opens: it gets its slice of the next
// window with a single attempt, rejoining if it answers and re-opening
// if not, in which case a shard that answered in the same window
// decides that slice too. If a closed shard fails past its budget the
// whole window returns ErrUnavailable and the caller degrades to
// centralized characterization — verdicts unchanged, one DirStats
// degradation counted. A statusErr answer is returned at once and
// never charged to a breaker.
//
// Client is not safe for concurrent use (neither is the Monitor that
// owns it).
type Client struct {
	cfg    Config
	sleep  func(time.Duration) // waits out a retry backoff; tests stub it
	shards []*shard
	rng    *stats.RNG
	// st accumulates the lifetime wire counters; stMu guards it so a
	// stats snapshot (Monitor.DirStats, a metrics scrape) can run on
	// another goroutine while a window is in flight. Everything else on
	// the client keeps the single-caller contract.
	stMu sync.Mutex
	st   Stats
	enc  []byte          // the window's encoded request
	in   []byte          // response scratch
	rows []float64       // window row scratch
	decs []dist.Decision // the last window's decisions, which DecideWindow returned
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

// Reset closes connections and forgets every shard's breaker, keeping
// the lifetime Stats — the Monitor.Reset contract.
func (c *Client) Reset() {
	c.Close()
	for _, s := range c.shards {
		s.state = brClosed
		s.fails = 0
		s.cooldown = 0
	}
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
// shards hold nothing from the window, and the breakers recover on
// later windows without operator action.
//
// The returned slice is the client's own and is valid until its next
// DecideWindow, which decodes into the same array: a caller keeps the
// decisions by copying them out. Their Results are decoded into new
// memory the client never reuses, so the Results themselves stay
// valid.
func (c *Client) DecideWindow(pair *motion.Pair, abnormal []int, cfg core.Config) ([]dist.Decision, dist.Stats, error) {
	for i, id := range abnormal {
		if i > 0 && id <= abnormal[i-1] {
			return nil, dist.Stats{}, fmt.Errorf("abnormal set not sorted: %w", ErrConfig)
		}
		if id < 0 || id >= pair.N() {
			return nil, dist.Stats{}, fmt.Errorf("abnormal device %d outside population of %d: %w", id, pair.N(), ErrConfig)
		}
	}

	participants := c.rotation()
	if len(participants) == 0 {
		return nil, dist.Stats{}, fmt.Errorf("all %d shard breakers open: %w", len(c.shards), ErrUnavailable)
	}

	// Encode the window once; decideRange patches each shard's range
	// into the same bytes.
	w := windowOf(pair, abnormal, cfg, c.rows)
	c.rows = w.prev[:0]
	c.enc = appendWindow(c.enc[:0], w)

	// Partition the sorted abnormal positions contiguously across the
	// rotation; merged in shard order the decisions land in device
	// order, matching dist.DecideAll. A half-open shard's slice is its
	// probe: one attempt, and on failure the slice waits in orphans for
	// a shard that answered.
	c.decs = slab.Of(c.decs, len(abnormal))
	out := c.decs
	m := len(abnormal)
	base, rem := m/len(participants), m%len(participants)
	var orphans [][2]int
	var answered *shard
	from := 0
	for i, s := range participants {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		to := from + size
		probe := s.state == brHalfOpen
		err := c.decideRange(s, abnormal, from, out[from:to], probe)
		switch {
		case err == nil:
			if probe {
				c.count(func(st *Stats) { st.Rejoins++ })
				s.state = brClosed
			}
			if answered == nil {
				answered = s
			}
		case probe && !isAppError(err):
			orphans = append(orphans, [2]int{from, to})
		default:
			return nil, dist.Stats{}, err
		}
		from = to
	}
	for _, r := range orphans {
		if answered == nil {
			return nil, dist.Stats{}, fmt.Errorf("no shard survived its half-open probe: %w", ErrUnavailable)
		}
		if err := c.decideRange(answered, abnormal, r[0], out[r[0]:r[1]], false); err != nil {
			return nil, dist.Stats{}, err
		}
	}
	var total dist.Stats
	for _, dec := range out {
		total.Add(dec.Stats)
	}
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

// windowOf assembles the wire request for the whole window, its range
// still empty: the abnormal devices' rows in id order, prev then cur,
// in one slab that reuses rows' capacity.
func windowOf(pair *motion.Pair, abnormal []int, cfg core.Config, rows []float64) windowMsg {
	d := pair.Dim()
	size := len(abnormal) * d
	rows = slices.Grow(rows[:0], 2*size)[:2*size]
	w := windowMsg{
		cfg:  cfg,
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

// decideRange fetches the decisions for positions [from, from+len(dst))
// of the window's sorted abnormal set from one shard into dst, patching
// the range into the encoded request. probe=true is the half-open
// path: a single attempt. A response that decodes to anything but one
// valid decision per position counts against the shard like a
// transport fault, and either fails as ErrUnavailable. A statusErr
// answer — a deterministic application rejection such as an invalid
// config — is returned as is: retrying or failing over cannot fix it,
// and it says nothing about the shard's health.
func (c *Client) decideRange(s *shard, abnormal []int, from int, dst []dist.Decision, probe bool) error {
	setRange(c.enc, from, from+len(dst))
	attempts := 1 + c.cfg.MaxRetries
	if probe {
		attempts = 1
	}
	resp, err := c.request(s, c.enc, attempts)
	if err == nil {
		err = decodeWindowDecisions(resp, abnormal, from, dst)
	}
	if isAppError(err) {
		return err
	}
	if err != nil {
		c.noteFailure(s)
		return fmt.Errorf("shard %s: %w: %w", s.addr, ErrUnavailable, err)
	}
	s.fails = 0
	return nil
}

// decodeWindowDecisions decodes the body of a decide response for
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
// A statusErr response returns immediately — it is an answer, not a
// fault.
func (c *Client) request(s *shard, payload []byte, attempts int) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.count(func(st *Stats) { st.Retries++ })
			c.sleep(c.backoff(attempt))
		}
		body, err := c.attempt(s, payload)
		if err == nil || isAppError(err) {
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
	if err != nil && !isAppError(err) {
		// Malformed response: treat as transport fault.
		c.dropConn(s)
	}
	return body, err
}
