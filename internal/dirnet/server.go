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
	"anomalia/internal/slab"
	"anomalia/internal/space"
)

// Server hosts one directory replica. Each request carries one
// observation window's m abnormal trajectories and the slice of it to
// decide; the server builds a compact m-row state pair over
// window-local ids 0..m-1 (local id i is the i-th abnormal device) and
// a fresh dist.Directory over it, so a window costs memory in m, never
// in the declared population n. The local-to-global id table is
// applied only when the response is encoded: the table is monotone, so
// sorted motions and every id-order tie-break come out exactly as the
// in-process directory's. The slice — positions [from, to) of the
// sorted abnormal set, which are also its local ids — is decided by
// dist.DecideRange, the same view-grouped parallel batch the
// in-process directory runs, so devices sharing a 4r view share one
// characterizer on the server too. Error texts from the decision
// procedures name local ids.
//
// Nothing outlives a request: a server that restarts loses nothing the
// next window does not resend. Serve/HandleConn may run for many
// connections concurrently.
type Server struct {
	// IOTimeout bounds one frame body read or response write, so a
	// stalled peer cannot wedge a handler goroutine forever. The wait
	// for the next request header is unbounded — idle connections are
	// normal. Zero means DefaultRequestTimeout.
	IOTimeout time.Duration

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

// NewServer returns a server with no connections.
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

// Close drops every active connection and refuses new ones.
func (s *Server) Close() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	clear(s.conns)
}

// request is the decoded window of one request, its local id list and
// the decisions of its slice, recycled through requestPool: nothing
// read from them outlives the response, which is encoded before respond
// returns.
type request struct {
	w     windowMsg
	local []int
	decs  []dist.Decision
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// respond serves one request payload and appends the response to out:
// decode the window, build its compact state pair and a directory over
// it, and decide the requested slice into the request's decisions. The
// request and the directory go back to their pools once the response is
// encoded.
func (s *Server) respond(out, payload []byte) []byte {
	if len(payload) == 0 {
		return appendErr(out, errors.New("empty request"))
	}
	if payload[0] != msgDecideWindow {
		return appendErr(out, fmt.Errorf("unknown message type %#x", payload[0]))
	}
	req := requestPool.Get().(*request)
	defer func() {
		clear(req.decs) // drop the Results, which the pool must not keep alive
		requestPool.Put(req)
	}()
	w := &req.w
	if err := decodeWindow(&cursor{b: payload, off: 1}, w); err != nil {
		return appendErr(out, err)
	}
	pair, err := compactPair(*w)
	if err != nil {
		return appendErr(out, err)
	}
	req.local = slab.Of(req.local, len(w.ids))
	for i := range req.local {
		req.local[i] = i
	}
	dir, err := dist.NewDirectory(pair, req.local, w.cfg.R)
	if err != nil {
		return appendErr(out, err)
	}
	defer dir.Release()
	decs, _, err := dist.DecideRange(req.decs, dir, w.cfg, w.from, w.to)
	if err != nil {
		return appendErr(out, err)
	}
	req.decs = decs
	return appendDecisions(append(out, statusOK), decs, w.ids)
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
