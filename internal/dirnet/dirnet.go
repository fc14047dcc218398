// Package dirnet puts the distributed directory of internal/dist on a
// real wire: a Server hosts one directory replica behind a
// length-prefixed binary protocol (the framing conventions of
// internal/snapio), and a Client drives a fleet of such servers from
// the Monitor's decision path — per-request deadlines, bounded retries
// with exponential backoff and full jitter, and a per-shard circuit
// breaker, so a slow or dead shard never wedges a tick.
//
// # Protocol
//
// Every frame is `uint32 length | payload`, little-endian, with the
// payload's first byte naming the message; lengths are capped at
// MaxFrame, and a reader grows its buffer only as payload bytes arrive,
// so a corrupt or hostile prefix cannot demand an allocation the peer
// does not pay for in bytes sent.
// Requests:
//
//	msgInit      seq, r, n, d, m, ids, prev rows, cur rows — build the
//	             window from its abnormal trajectories; ids strictly
//	             increasing and below n
//	msgDecideAll seq, core config, [from, to) positions into the
//	             window's sorted abnormal set — the shard's slice of
//	             the fleet's decisions
//	msgDecide    seq, core config, one device id
//	msgView      seq, one device id — the raw 4r view plus its bill
//
// Responses: statusOK followed by the result, statusNeedInit when the
// server does not hold the window a decide or view request names
// (fresh start, crash restart, or a window superseded since), or
// statusErr carrying the error text (an application error:
// deterministic, never retried).
//
// Every abnormal window is one msgInit per shard, then one decide
// request per shard slice. Only the m abnormal devices' rows cross the
// wire, and the server builds compact m-row states over window-local
// ids 0..m-1, so a window's memory never depends on n, which the frame
// only declares. Sound because every path from a directory window to a
// verdict (grid index, 4r views, core characterization) reads abnormal
// rows only and orders devices by id; the local-to-global id table is
// monotone and is applied when a response is encoded, so sorted
// motions and id tie-breaks are preserved. Rows must already lie in
// the unit cube (the Monitor clamps on ingest), so the reconstruction
// is bit-exact and networked verdicts match the in-process
// directory's byte for byte.
//
// The decision results carried back (class, rule, dense motions,
// costs, traffic stats) are exactly the fields an Outcome is built
// from; the core diagnostic J/L neighbourhood split stays server-side.
package dirnet

import (
	"errors"
	"net"
	"time"
)

// ErrConfig is returned for invalid client or server configuration.
var ErrConfig = errors.New("dirnet: invalid configuration")

// ErrUnavailable is returned by Client.DecideWindow when the window
// could not be decided over the wire — a required shard stayed
// unreachable past its retry budget, or every shard's breaker is open.
// The Monitor treats it as a degradation signal, not a failure: the
// window falls back to centralized characterization.
var ErrUnavailable = errors.New("dirnet: directory unavailable")

// errNeedInit is the internal resync signal decoded from
// statusNeedInit.
var errNeedInit = errors.New("dirnet: server needs init")

// Defaults applied by NewClient when the corresponding Config field is
// zero.
const (
	DefaultDialTimeout     = time.Second
	DefaultRequestTimeout  = 2 * time.Second
	DefaultMaxRetries      = 2
	DefaultBackoffBase     = 5 * time.Millisecond
	DefaultBackoffCap      = 100 * time.Millisecond
	DefaultBreakerFails    = 3
	DefaultBreakerCooldown = 2
)

// Config configures a Client.
type Config struct {
	// Addrs lists the directory shard servers. Every address hosts a
	// full directory replica; the fleet's decisions are partitioned
	// contiguously across the shards whose breakers are closed, so a
	// breaker-open shard's slice fails over to the survivors.
	Addrs []string
	// Dial opens a connection to one shard; nil means TCP with
	// DialTimeout. Tests and simulations inject in-process pipes and
	// fault models here.
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds the default TCP dial.
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline covering the write of
	// the request and the read of its response.
	RequestTimeout time.Duration
	// MaxRetries bounds the retransmissions after a failed attempt, so
	// a request costs at most 1+MaxRetries round-trip budgets.
	MaxRetries int
	// BackoffBase and BackoffCap shape the retry backoff: attempt i
	// sleeps uniform[0, min(BackoffCap, BackoffBase·2^(i-1))) — full
	// jitter, so synchronized retry storms decorrelate.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerFails is N in the breaker's closed → open transition:
	// consecutive transport failures before the shard is taken out of
	// rotation.
	BreakerFails int
	// BreakerCooldown is how many abnormal windows an open breaker
	// waits before half-opening with a single probe — counted in
	// windows, not wall time, so runs are deterministic.
	BreakerCooldown int
	// Seed drives the backoff jitter.
	Seed int64
}

// Stats counts the client's lifetime wire activity — the measured
// counterpart of the billed message economy in dist.Stats, surfaced
// through Monitor.DirStats and the DistCost wire columns.
type Stats struct {
	// BytesSent and BytesReceived count frame bytes, prefix included.
	BytesSent     int64
	BytesReceived int64
	// RoundTrips counts completed request/response exchanges.
	RoundTrips int64
	// Retries counts retransmission attempts after a failed attempt.
	Retries int64
	// Failures counts requests abandoned after the retry budget.
	Failures int64
	// BreakerOpens counts closed → open breaker transitions;
	// Rejoins counts half-open probes that closed the breaker again.
	BreakerOpens int64
	Rejoins      int64
}
