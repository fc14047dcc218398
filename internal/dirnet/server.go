package dirnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anomalia/internal/dist"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// Server hosts one directory replica: it rebuilds each observation
// window's abnormal trajectories from the wire (sparse n-row states —
// only abnormal rows are ever read by the decision path), keeps the
// dist.Directory alive across windows so msgAdvance patches instead of
// rebuilding, and answers decision and view queries against it. A
// shard's slice of a window — positions [from, to) of the sorted
// abnormal set — is decided by dist.DecideRange, the same view-grouped
// parallel batch the in-process directory runs, so devices sharing a 4r
// view share one characterizer on the server too.
//
// A server that restarts — or that never saw the client's last window
// — answers statusNeedInit, and the client re-seeds it with msgInit:
// crash recovery costs one extra round-trip, never a wrong verdict.
//
// Serve/HandleConn may run for many connections concurrently; the
// directory transitions are serialized, and decision reads run against
// immutable window snapshots (the dist.Directory contract).
type Server struct {
	// IOTimeout bounds one frame body read or response write, so a
	// stalled peer cannot wedge a handler goroutine forever. The wait
	// for the next request header is unbounded — idle connections are
	// normal. Zero means DefaultRequestTimeout.
	IOTimeout time.Duration

	mu  sync.Mutex // serializes directory transitions (init/advance)
	dir *dist.Directory
	seq uint64 // window the directory currently holds; 0 = none

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

// NewServer returns an empty server: the first request it can answer
// with anything but statusNeedInit is msgInit.
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
	return s.seq
}

// respond dispatches one request payload and appends the response to
// out.
func (s *Server) respond(out, payload []byte) []byte {
	if len(payload) == 0 {
		return appendErr(out, errors.New("empty request"))
	}
	c := &cursor{b: payload, off: 1}
	switch payload[0] {
	case msgInit, msgAdvance:
		return s.respondWindow(out, payload[0], c)
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

// respondWindow applies msgInit / msgAdvance: reconstruct the window's
// sparse state pair and transition the directory.
func (s *Server) respondWindow(out []byte, typ byte, c *cursor) []byte {
	w, err := decodeWindow(c)
	if err != nil {
		return appendErr(out, err)
	}
	pair, err := sparsePair(w)
	if err != nil {
		return appendErr(out, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if typ == msgAdvance {
		if s.dir == nil || s.seq != w.prevSeq {
			return append(out, statusNeedInit)
		}
		if _, err := s.dir.Advance(pair, w.ids, w.moved); err != nil {
			// Advance never mutates the retained window on error, and seq
			// is untouched — the client's next attempt resyncs via
			// statusNeedInit or a matching msgInit.
			return appendErr(out, err)
		}
	} else {
		dir, err := dist.NewDirectory(pair, w.ids, w.r)
		if err != nil {
			return appendErr(out, err)
		}
		s.dir = dir
	}
	s.seq = w.seq
	return append(out, statusOK)
}

// sparsePair rebuilds the window's state pair at full population size
// with only the abnormal rows populated. Sound because the directory
// and decision paths read abnormal rows only; rows already lie in the
// unit cube, so Set's clamp is the identity and the reconstruction is
// bit-exact.
func sparsePair(w windowMsg) (*motion.Pair, error) {
	m := len(w.ids)
	if len(w.prev) != m*w.d || len(w.cur) != m*w.d {
		return nil, fmt.Errorf("window rows %d/%d for %d ids × %d services", len(w.prev), len(w.cur), m, w.d)
	}
	prev, err := space.NewState(w.n, w.d)
	if err != nil {
		return nil, err
	}
	cur, err := space.NewState(w.n, w.d)
	if err != nil {
		return nil, err
	}
	for i, id := range w.ids {
		if id < 0 || id >= w.n {
			return nil, fmt.Errorf("abnormal device %d outside population of %d", id, w.n)
		}
		if err := prev.Set(id, w.prev[i*w.d:(i+1)*w.d]); err != nil {
			return nil, err
		}
		if err := cur.Set(id, w.cur[i*w.d:(i+1)*w.d]); err != nil {
			return nil, err
		}
	}
	return motion.NewPair(prev, cur)
}

// window returns the live directory if it holds seq, or nil (→
// statusNeedInit).
func (s *Server) window(seq uint64) *dist.Directory {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == nil || s.seq != seq {
		return nil
	}
	return s.dir
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
	dir := s.window(m.seq)
	if dir == nil {
		return append(out, statusNeedInit)
	}
	decs, _, err := dist.DecideRange(dir, m.cfg, m.from, m.to)
	if err != nil {
		return appendErr(out, err)
	}
	out = append(out, statusOK)
	out = appendU32(out, uint32(len(decs)))
	for _, dec := range decs {
		out = appendDecision(out, dec)
	}
	return out
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
	dir := s.window(m.seq)
	if dir == nil {
		return append(out, statusNeedInit)
	}
	res, st, err := dist.Decide(dir, m.device, m.cfg)
	if err != nil {
		return appendErr(out, err)
	}
	out = append(out, statusOK)
	return appendDecision(out, dist.Decision{Result: res, Stats: st})
}

// respondView serves one device's raw 4r view plus its billed stats.
func (s *Server) respondView(out []byte, c *cursor) []byte {
	seq := c.u64()
	device := int(c.u32())
	if err := c.err(); err != nil {
		return appendErr(out, err)
	}
	dir := s.window(seq)
	if dir == nil {
		return append(out, statusNeedInit)
	}
	view, st, err := dir.View(device)
	if err != nil {
		return appendErr(out, err)
	}
	out = append(out, statusOK)
	out = appendU32(out, uint32(st.Messages))
	out = appendU32(out, uint32(st.Trajectories))
	out = appendU32(out, uint32(st.ViewSize))
	out = appendU32(out, uint32(len(view)))
	for _, id := range view {
		out = appendU32(out, uint32(id))
	}
	return out
}
