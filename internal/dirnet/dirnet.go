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
//
// There is one request, type byte 7:
//
//	7 msgDecideWindow  core config, u32 from, u32 to, then the window:
//	                   n, d, m, m ids, m prev rows, m cur rows — ids
//	                   strictly increasing and below n; [from, to) are
//	                   the positions of the window's sorted abnormal
//	                   set this shard decides
//
// The server builds the window's directory at the config's R, decides
// the range, answers, and keeps nothing: each abnormal window is one
// request and one response per shard it is sent to, and a restarted
// shard serves the next window like any other. The client encodes the
// request once per window and patches only the two range words for
// each shard.
//
// Types 1-6 were the requests of earlier protocols: a window sent ahead
// of separate decide and view requests (1, 4, 5, 6), and before that
// decide requests whose decisions carried their dense motions inline
// (2, 3). They are retired, not reused: a server on any protocol
// answers another's requests with statusErr ("unknown message type"),
// so a mismatched pair degrades the window to centralized without
// retries and never misreads a response.
//
// Responses: statusOK (0x80) followed by the result, or statusErr
// (0x82) carrying the error text (an application error: deterministic,
// never retried). 0x81, an earlier protocol's status, is retired.
//
// A result is a motion table and then the decisions:
//
//	u32 T, then T motions: u32 len, len global ids (u32), sorted
//	u32 D, then D decisions: u32 device, u8 class, u8 rule, four u64
//	    costs, u32 k and k u32 refs into the table, u32 messages,
//	    trajectories and view size
//
// The table lists each distinct dense motion of the response once, in
// first-appearance order (decisions in order, each decision's motions
// in order). The client bounds every count by the bytes left in the
// payload before it allocates, rejects a ref outside the table, checks
// each table motion once (sorted, inside the window's abnormal set),
// and checks that every decision's device belongs to each motion it
// refers to.
//
// Only the m abnormal devices' rows cross the wire, and the server
// builds compact m-row states over window-local ids 0..m-1, so a
// window's memory never depends on n, which the frame only declares. Sound because every path from a directory window to a
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
	// contiguously across the shards whose breakers are not open, so a
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
