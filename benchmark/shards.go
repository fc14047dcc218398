package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anomalia/internal/dirnet"
)

// shards runs in-process directory shard servers on loopback TCP.
// With timing on, every accepted connection is wrapped so the servers'
// compute time is measured at the socket: from the end of a request's
// last read to the start of its response write.
type shards struct {
	srv   []*dirnet.Server
	ln    []net.Listener
	wg    sync.WaitGroup
	nanos atomic.Int64 // server compute time, summed over requests
}

func startShards(count int, timed bool) (*shards, error) {
	s := &shards{}
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		srv := dirnet.NewServer()
		s.srv = append(s.srv, srv)
		s.ln = append(s.ln, ln)
		var serve net.Listener = ln
		if timed {
			serve = timedListener{Listener: ln, total: &s.nanos}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			srv.Serve(serve) // returns once close shuts the listener
		}()
	}
	return s, nil
}

func (s *shards) addrs() []string {
	out := make([]string, len(s.ln))
	for i, ln := range s.ln {
		out[i] = ln.Addr().String()
	}
	return out
}

// serverTime returns the summed server compute time so far.
func (s *shards) serverTime() time.Duration { return time.Duration(s.nanos.Load()) }

// close stops accepting, drops every live connection and waits for the
// accept loops to return.
func (s *shards) close() {
	for _, ln := range s.ln {
		ln.Close()
	}
	for _, srv := range s.srv {
		srv.Close()
	}
	s.wg.Wait()
}

type timedListener struct {
	net.Listener
	total *atomic.Int64
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, total: l.total}, nil
}

// timedConn is used by one server goroutine at a time, so its fields
// need no lock; only the shared total is atomic.
type timedConn struct {
	net.Conn
	total    *atomic.Int64
	lastRead time.Time
	reading  bool
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead, c.reading = time.Now(), true
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	if c.reading {
		c.total.Add(int64(time.Since(c.lastRead)))
		c.reading = false
	}
	return c.Conn.Write(p)
}
