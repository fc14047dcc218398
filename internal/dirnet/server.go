package dirnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anomalia/internal/dist"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// Server hosts one directory replica. Each msgInit carries one
// observation window's m abnormal trajectories; the server builds a
// compact m-row state pair over window-local ids 0..m-1 (local id i is
// the i-th abnormal device) and a fresh dist.Directory over it, so a
// window costs memory in m, never in the declared population n. The
// local-to-global id table is applied only when a response is encoded:
// the table is monotone, so sorted motions and every id-order
// tie-break come out exactly as the in-process directory's. A shard's
// slice of a window — positions [from, to) of the sorted abnormal set,
// which are also its local ids — is decided by dist.DecideRange, the
// same view-grouped parallel batch the in-process directory runs, so
// devices sharing a 4r view share one characterizer on the server too.
// Error texts from the decision procedures name local ids.
//
// Every window is rebuilt from its own message, so a server that
// restarts loses nothing the next window does not resend. A decide or
// view request for a window the server does not hold (fresh start,
// crash restart, or a window superseded by another client) gets
// statusNeedInit.
//
// Serve/HandleConn may run for many connections concurrently; window
// builds run outside the lock and publish with one swap, and decision
// reads run against immutable window snapshots (the dist.Directory
// contract).
type Server struct {
	// IOTimeout bounds one frame body read or response write, so a
	// stalled peer cannot wedge a handler goroutine forever. The wait
	// for the next request header is unbounded — idle connections are
	// normal. Zero means DefaultRequestTimeout.
	IOTimeout time.Duration

	mu  sync.Mutex // guards win
	win *shardWindow

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Lifetime wire-service counters behind Counters — atomics, so
	// concurrent HandleConn goroutines record without coordination and
	// a scraper reads without stopping service.
	nConns        atomic.Int64
	nRequests     atomic.Int64
	nReqErrors    atomic.Int64
	nBytesRead    atomic.Int64
	nBytesWritten atomic.Int64
}

// shardWindow is one decided window as a unit, so a decide never pairs
// one window's directory with another window's id table.
type shardWindow struct {
	seq uint64          // the client's window sequence
	dir *dist.Directory // built over local ids 0..m-1
	ids []int           // local id → global device id, strictly increasing
}

// ServerCounters is a snapshot of a server's lifetime wire service:
// connections accepted, requests answered (errors are the subset
// answered with an application statusErr), and frame bytes moved,
// prefix included. Safe to call from any goroutine.
type ServerCounters struct {
	Connections   int64
	Requests      int64
	RequestErrors int64
	BytesRead     int64
	BytesWritten  int64
}

// Counters returns the lifetime wire counters.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		Connections:   s.nConns.Load(),
		Requests:      s.nRequests.Load(),
		RequestErrors: s.nReqErrors.Load(),
		BytesRead:     s.nBytesRead.Load(),
		BytesWritten:  s.nBytesWritten.Load(),
	}
}

// NewServer returns an empty server: it answers decide and view
// requests with statusNeedInit until its first msgInit.
func NewServer() *Server {
	return &Server{conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener fails (or is closed)
// and handles each on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.HandleConn(conn)
	}
}

// HandleConn serves one connection until EOF, a transport error, or
// Close.
func (s *Server) HandleConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	s.nConns.Add(1)
	r := bufio.NewReaderSize(conn, 1<<16)
	timeout := s.IOTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	var in, out []byte
	for {
		// Block for the next request header indefinitely, then bound the
		// rest of the exchange.
		conn.SetDeadline(time.Time{})
		payload, rcvd, err := readFrameDeadline(conn, r, in, timeout)
		in = payload
		if err != nil {
			return
		}
		s.nRequests.Add(1)
		s.nBytesRead.Add(int64(rcvd))
		out = s.respond(out[:0], payload)
		if len(out) > 0 && out[0] == statusErr {
			s.nReqErrors.Add(1)
		}
		conn.SetWriteDeadline(time.Now().Add(timeout))
		sent, err := writeFrame(conn, out)
		s.nBytesWritten.Add(int64(sent))
		if err != nil {
			return
		}
	}
}

// readFrameDeadline reads one frame, arming the IO deadline only after
// the first header byte arrives.
func readFrameDeadline(conn net.Conn, r *bufio.Reader, buf []byte, timeout time.Duration) ([]byte, int, error) {
	if _, err := r.Peek(1); err != nil {
		return buf, 0, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	return readFrame(r, buf)
}

func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close drops every active connection and refuses new ones. The
// directory state is kept: a closed-then-reused server models a
// partition, a fresh NewServer models a crash.
func (s *Server) Close() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	clear(s.conns)
}

// Seq returns the window sequence the directory currently holds (0 =
// none) — observability for tests and the binary's logs.
func (s *Server) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.win == nil {
		return 0
	}
	return s.win.seq
}

// respond dispatches one request payload and appends the response to
// out.
func (s *Server) respond(out, payload []byte) []byte {
	if len(payload) == 0 {
		return appendErr(out, errors.New("empty request"))
	}
	c := &cursor{b: payload, off: 1}
	switch payload[0] {
	case msgInit:
		return s.respondWindow(out, c)
	case msgDecideAll:
		return s.respondDecideAll(out, c)
	case msgDecide:
		return s.respondDecide(out, c)
	case msgView:
		return s.respondView(out, c)
	default:
		return appendErr(out, fmt.Errorf("unknown message type %#x", payload[0]))
	}
}

// respondWindow applies msgInit: build the window's compact state pair
// and a fresh directory over it, then publish both with the id table.
func (s *Server) respondWindow(out []byte, c *cursor) []byte {
	w, err := decodeWindow(c)
	if err != nil {
		return appendErr(out, err)
	}
	pair, err := compactPair(w)
	if err != nil {
		return appendErr(out, err)
	}
	local := make([]int, len(w.ids))
	for i := range local {
		local[i] = i
	}
	dir, err := dist.NewDirectory(pair, local, w.r)
	if err != nil {
		return appendErr(out, err)
	}
	s.mu.Lock()
	s.win = &shardWindow{seq: w.seq, dir: dir, ids: w.ids}
	s.mu.Unlock()
	return append(out, statusOK)
}

// compactPair builds the window's state pair over local ids: row i
// holds abnormal device w.ids[i]. Sound because every path from a
// directory window to a verdict (grid index, 4r views, core
// characterization) reads abnormal rows only and orders devices by id,
// which the strictly increasing id table preserves. The states adopt
// the decoded rows, keeping the unit-cube clamp, the identity on rows
// the Monitor already clamped, so the rows are bit-exact; non-finite
// coordinates are rejected, naming the local id.
func compactPair(w windowMsg) (*motion.Pair, error) {
	m := len(w.ids)
	if len(w.prev) != m*w.d || len(w.cur) != m*w.d {
		return nil, fmt.Errorf("window rows %d/%d for %d ids × %d services", len(w.prev), len(w.cur), m, w.d)
	}
	for i, id := range w.ids {
		if id >= w.n {
			return nil, fmt.Errorf("abnormal device %d outside population of %d", id, w.n)
		}
		if i > 0 && id <= w.ids[i-1] {
			return nil, fmt.Errorf("abnormal ids not strictly increasing: %d after %d", id, w.ids[i-1])
		}
	}
	prev, err := space.StateFromFlat(w.d, w.prev)
	if err != nil {
		return nil, fmt.Errorf("previous rows: %w", err)
	}
	cur, err := space.StateFromFlat(w.d, w.cur)
	if err != nil {
		return nil, fmt.Errorf("current rows: %w", err)
	}
	return motion.NewPair(prev, cur)
}

// window returns the held window if it is seq, or nil (→
// statusNeedInit).
func (s *Server) window(seq uint64) *shardWindow {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.win == nil || s.win.seq != seq {
		return nil
	}
	return s.win
}

// local maps a requested global device id to its window-local id. A
// device outside the window gets the error dist reports for it.
func (w *shardWindow) local(device int) (int, error) {
	pos, ok := slices.BinarySearch(w.ids, device)
	if !ok {
		return 0, fmt.Errorf("device %d: %w", device, dist.ErrUnknownDevice)
	}
	return pos, nil
}

// respondDecideAll serves the shard's slice of the fleet's decisions:
// positions [from, to) of the window's sorted abnormal set.
func (s *Server) respondDecideAll(out []byte, c *cursor) []byte {
	var m decideMsg
	m.seq = c.u64()
	m.cfg = decodeConfig(c)
	m.from = int(c.u32())
	m.to = int(c.u32())
	if err := c.err(); err != nil {
		return appendErr(out, err)
	}
	w := s.window(m.seq)
	if w == nil {
		return append(out, statusNeedInit)
	}
	decs, _, err := dist.DecideRange(w.dir, m.cfg, m.from, m.to)
	if err != nil {
		return appendErr(out, err)
	}
	return appendDecisions(append(out, statusOK), decs, w.ids)
}

// respondDecide serves one device's decision.
func (s *Server) respondDecide(out []byte, c *cursor) []byte {
	var m decideMsg
	m.seq = c.u64()
	m.cfg = decodeConfig(c)
	m.device = int(c.u32())
	if err := c.err(); err != nil {
		return appendErr(out, err)
	}
	w := s.window(m.seq)
	if w == nil {
		return append(out, statusNeedInit)
	}
	j, err := w.local(m.device)
	if err != nil {
		return appendErr(out, err)
	}
	res, st, err := dist.Decide(w.dir, j, m.cfg)
	if err != nil {
		return appendErr(out, err)
	}
	return appendDecisions(append(out, statusOK), []dist.Decision{{Result: res, Stats: st}}, w.ids)
}

// respondView serves one device's raw 4r view plus its billed stats.
func (s *Server) respondView(out []byte, c *cursor) []byte {
	seq := c.u64()
	device := int(c.u32())
	if err := c.err(); err != nil {
		return appendErr(out, err)
	}
	w := s.window(seq)
	if w == nil {
		return append(out, statusNeedInit)
	}
	j, err := w.local(device)
	if err != nil {
		return appendErr(out, err)
	}
	view, st, err := w.dir.View(j)
	if err != nil {
		return appendErr(out, err)
	}
	out = append(out, statusOK)
	out = appendU32(out, uint32(st.Messages))
	out = appendU32(out, uint32(st.Trajectories))
	out = appendU32(out, uint32(st.ViewSize))
	out = appendU32(out, uint32(len(view)))
	for _, id := range view {
		out = appendU32(out, uint32(w.ids[id]))
	}
	return out
}
