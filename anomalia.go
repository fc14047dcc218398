package anomalia

import (
	"errors"
	"fmt"
	"net"
	"time"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/health"
	"anomalia/internal/metrics"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// Class is the verdict for one abnormal device.
type Class int

// Verdicts. The zero value is invalid.
const (
	// Isolated: the error hit at most τ devices in every admissible
	// scenario — report it, it is this device's problem.
	Isolated Class = iota + 1
	// Massive: the error hit more than τ devices in every admissible
	// scenario — a network-level event.
	Massive
	// Unresolved: admissible scenarios disagree; even an omniscient
	// observer could not tell (the paper's impossibility result).
	Unresolved
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case Isolated:
		return "isolated"
	case Massive:
		return "massive"
	case Unresolved:
		return "unresolved"
	default:
		return "unknown"
	}
}

// Cost reports the work one device spent deciding (the counters of the
// paper's Table III).
type Cost struct {
	// MaximalMotions is the number of maximal r-consistent motions
	// enumerated around the device.
	MaximalMotions int `json:"maximal_motions"`
	// DenseMotions is the number of maximal τ-dense motions containing
	// the device.
	DenseMotions int `json:"dense_motions"`
	// NeighborsScanned counts neighbours whose motions were enumerated.
	NeighborsScanned int `json:"neighbors_scanned"`
	// CollectionsTested counts the collections examined by the exact
	// (Theorem 7) search, when it ran.
	CollectionsTested int `json:"collections_tested"`
}

// Report is the outcome for one device.
type Report struct {
	// Device is the device index.
	Device int `json:"device"`
	// Class is the verdict.
	Class Class `json:"class"`
	// Rule names the paper result that decided: "theorem5", "theorem6",
	// "theorem7", "corollary8", or "none" (cheap mode fallback).
	Rule string `json:"rule"`
	// DenseMotions lists the maximal τ-dense motions containing the
	// device (sorted device indices). Reports of devices with the same
	// motions share the slice and its elements; treat them as read-only.
	// A Report marshalled alone writes them inline; inside an Outcome's
	// record they are indices into the window's motion table (see
	// Outcome.MarshalJSON).
	DenseMotions [][]int `json:"dense_motions,omitempty"`
	// Cost is the decision cost.
	Cost Cost `json:"cost"`
}

// DistStats aggregates the directory traffic of one distributed window:
// the summed communication bills of every abnormal device's 4r-view
// fetch (see WithDistributed and the internal dist package).
type DistStats struct {
	// Messages is the total protocol messages exchanged with the
	// directory service.
	Messages int `json:"messages"`
	// Trajectories is the total trajectories shipped to deciding devices.
	Trajectories int `json:"trajectories"`
	// ViewSize is the summed 4r-view sizes.
	ViewSize int `json:"view_size"`
}

// Outcome is the fleet-wide result of one observation window. Its JSON
// form is the window record of MarshalJSON and UnmarshalJSON: reports
// refer to a window-level table of dense motions, so a motion shared by
// many devices is written once.
//
// An Outcome owns its memory. The working memory its window was decided
// in is refilled by later windows once the window is decided, but the
// Reports, the id lists and the dense motions are allocated for the
// Outcome and never reused, so an Outcome stays valid however many
// windows follow it.
type Outcome struct {
	// Reports holds one entry per abnormal device, in device order.
	Reports []Report `json:"reports"`
	// Massive, Isolated and Unresolved are the M_k / I_k / U_k sets.
	Massive    []int `json:"massive,omitempty"`
	Isolated   []int `json:"isolated,omitempty"`
	Unresolved []int `json:"unresolved,omitempty"`
	// Dist reports the directory traffic when the window was decided in
	// distributed mode (WithDistributed); nil otherwise.
	Dist *DistStats `json:"dist,omitempty"`
}

// MarshalText renders the class for JSON and log output.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a class rendered by MarshalText.
func (c *Class) UnmarshalText(text []byte) error {
	switch string(text) {
	case "isolated":
		*c = Isolated
	case "massive":
		*c = Massive
	case "unresolved":
		*c = Unresolved
	default:
		return fmt.Errorf("class %q: %w", text, ErrInvalidInput)
	}
	return nil
}

// ErrInvalidInput is returned for malformed snapshots or options.
var ErrInvalidInput = errors.New("anomalia: invalid input")

// Defaults applied when options are omitted; they are the operating point
// the paper dimensions for 1000 devices (Section VII-A).
const (
	// DefaultRadius is the default consistency impact radius r.
	DefaultRadius = 0.03
	// DefaultTau is the default density threshold τ.
	DefaultTau = 3
)

type config struct {
	radius        float64
	tau           int
	exact         bool
	budget        int
	distributed   bool
	directory     *DirectoryConfig
	ingestWorkers int
	factory       func(device, service int) (Detector, error)
	health        health.Policy
	metrics       *metrics.Registry
}

func defaultConfig() config {
	return config{
		radius: DefaultRadius,
		tau:    DefaultTau,
		exact:  true,
		health: health.DefaultPolicy(),
	}
}

// core returns the characterization parameters.
func (c config) core() core.Config {
	return core.Config{R: c.radius, Tau: c.tau, Exact: c.exact, Budget: c.budget}
}

// Option customizes Characterize, CharacterizeDevice and NewMonitor.
type Option func(*config)

// WithRadius sets the consistency impact radius r in [0, 1/4): devices
// within uniform-norm distance 2r at both snapshot times are considered
// to move consistently. Default 0.03.
func WithRadius(r float64) Option {
	return func(c *config) { c.radius = r }
}

// WithTau sets the density threshold τ >= 1 separating isolated (≤ τ
// devices) from massive (> τ) anomalies. Default 3.
func WithTau(tau int) Option {
	return func(c *config) { c.tau = tau }
}

// WithExact toggles the full necessary-and-sufficient check (Theorem 7 /
// Corollary 8) for devices the cheap sufficient condition cannot settle.
// Exact mode is the default; disabling it trades a ~0.4% massive-detection
// miss rate (paper, Table II) for strictly local, bounded work.
func WithExact(exact bool) Option {
	return func(c *config) { c.exact = exact }
}

// WithBudget caps the number of search nodes the exact check may explore
// per device (0 = implementation default). Exceeding the budget surfaces
// as an error from Characterize.
func WithBudget(budget int) Option {
	return func(c *config) { c.budget = budget }
}

// WithDistributed routes characterization through the distributed
// deployment path: abnormal trajectories are indexed in a sharded
// directory service and every abnormal device decides on the 4r view it
// fetches from it — the same code path the DistCost study bills. The
// verdicts are identical to the in-process path (the paper's locality
// result); Outcome.Dist additionally reports the directory traffic.
// Ignored by CharacterizeDevice, which decides in process.
func WithDistributed(distributed bool) Option {
	return func(c *config) { c.distributed = distributed }
}

// DirectoryConfig points a Monitor at a fleet of networked directory
// shard servers (cmd/anomalia-directory) instead of the in-process
// directory. Every address hosts a full directory replica; each
// abnormal window the monitor ships the abnormal trajectories to the
// reachable shards (one message per shard, from which each builds the
// window) and partitions the fleet's decisions contiguously across
// them, so a breaker-open shard's slice fails over to the survivors.
//
// Fault tolerance is built in: per-request deadlines, bounded retries
// with exponential backoff and full jitter, and a per-shard circuit
// breaker (closed → open after BreakerFails consecutive failures →
// one half-open probe after BreakerCooldown abnormal windows). When a
// window cannot be decided over the wire it falls back to centralized
// characterization — verdicts unchanged, the degradation counted in
// Monitor.DirStats — and shards rejoin via the half-open probe without
// operator action. Observe never returns an error for shard
// unavailability.
//
// The fields are those of the wire client's configuration
// (internal/dirnet), one for one, so the Monitor hands it over as a
// single type conversion.
type DirectoryConfig struct {
	// Addrs lists the shard servers (host:port). Required.
	Addrs []string
	// Dial overrides the transport (nil = TCP with DialTimeout) —
	// simulations and tests inject in-process pipes and fault models.
	Dial func(addr string) (net.Conn, error)
	// DialTimeout and RequestTimeout bound one dial and one
	// request/response exchange. Zero selects the dirnet defaults
	// (1s / 2s).
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// MaxRetries bounds retransmissions per request (0 = default 2),
	// each preceded by full-jitter exponential backoff between
	// BackoffBase and BackoffCap (0 = defaults 5ms / 100ms).
	MaxRetries  int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerFails and BreakerCooldown shape the per-shard circuit
	// breaker (0 = defaults 3 failures / 2 abnormal windows).
	BreakerFails    int
	BreakerCooldown int
	// Seed drives the backoff jitter.
	Seed int64
}

// WithDirectory routes the distributed decision path over the wire to
// the given directory shard fleet; it implies WithDistributed(true).
// See DirectoryConfig for the fault-tolerance contract. Ignored by
// Characterize and CharacterizeDevice, which are one-shot calls that
// decide in process.
func WithDirectory(dc DirectoryConfig) Option {
	return func(c *config) {
		c.distributed = true
		c.directory = &dc
	}
}

// DirStats reports the networked directory activity of a Monitor
// configured with WithDirectory: the window ledger (how many abnormal
// windows were served over the wire vs degraded to the centralized
// fallback) plus the lifetime wire counters. The zero value is
// returned for monitors without a networked directory.
type DirStats struct {
	// Windows counts abnormal windows routed to the networked
	// directory; Networked the ones served over the wire; Degraded the
	// ones that fell back to centralized characterization (verdicts
	// unchanged — the fallback is the oracle).
	Windows   int64 `json:"windows"`
	Networked int64 `json:"networked"`
	Degraded  int64 `json:"degraded"`
	// Retries counts retransmission attempts, Failures requests
	// abandoned after the retry budget.
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
	// BreakerOpens counts closed → open breaker transitions, Rejoins
	// half-open probes that brought a shard back.
	BreakerOpens int64 `json:"breaker_opens"`
	Rejoins      int64 `json:"rejoins"`
	// BytesSent / BytesReceived / RoundTrips are the measured wire
	// traffic, frame prefixes included.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	RoundTrips    int64 `json:"round_trips"`
}

// WithIngestWorkers sets how many workers Monitor.Observe shards its
// snapshot validation and per-device detector walk across: 1 forces the
// serial walk, 0 or negative selects GOMAXPROCS (the default). The
// abnormal set is identical whatever the count — the error-detection
// functions a_k(j) are independent per-device tests, the fleet is
// sliced into contiguous id ranges, and the per-worker abnormal-id
// buffers merge in range order. Small fleets fall back to the serial
// walk regardless. Ignored by Characterize, which takes the abnormal
// set as input.
func WithIngestWorkers(workers int) Option {
	return func(c *config) { c.ingestWorkers = workers }
}

// HealthState is a device's position in the degraded-ingestion state
// machine that Monitor.ObservePartial drives (see WithHealthPolicy).
type HealthState int

// Health states. The zero value is HealthLive: every device is live
// until a partial tick impairs it.
const (
	// HealthLive: reporting cleanly; reports are consumed as delivered.
	HealthLive HealthState = iota
	// HealthStale: missing or malformed for at most HoldTicks
	// consecutive ticks; the device's last-known value is held.
	HealthStale
	// HealthQuarantined: faulty past HoldTicks; excluded from the
	// window's population until ReadmitTicks consecutive clean reports.
	HealthQuarantined
)

// String renders the state.
func (s HealthState) String() string {
	switch s {
	case HealthLive:
		return "live"
	case HealthStale:
		return "stale"
	case HealthQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// HealthStats is the fleet's current health split plus the lifetime
// degraded-ingestion counters (see Monitor.HealthStats).
type HealthStats struct {
	// Live, Stale and Quarantined split the fleet by current state.
	Live        int `json:"live"`
	Stale       int `json:"stale"`
	Quarantined int `json:"quarantined"`
	// Quarantines and Readmissions count state-machine transitions into
	// and out of quarantine over the monitor's lifetime.
	Quarantines  int64 `json:"quarantines"`
	Readmissions int64 `json:"readmissions"`
	// HeldTicks counts device-ticks served from a held last-known value,
	// DroppedReports clean reports dropped while still quarantined, and
	// FaultyTicks device-ticks whose report was missing or malformed.
	HeldTicks      int64 `json:"held_ticks"`
	DroppedReports int64 `json:"dropped_reports"`
	FaultyTicks    int64 `json:"faulty_ticks"`
}

// HealthPolicy configures the per-device health state machine of
// Monitor.ObservePartial: a device whose report is missing or
// malformed has its last-known value held for up to HoldTicks
// consecutive faulty ticks (0 quarantines immediately), is then
// quarantined — excluded from the window's population — and re-admits
// after ReadmitTicks consecutive clean reports (at least 1; the
// re-admitting report is consumed, earlier ones in the run dropped).
type HealthPolicy struct {
	HoldTicks    int `json:"hold_ticks"`
	ReadmitTicks int `json:"readmit_ticks"`
}

// DefaultHealthPolicy returns the policy NewMonitor applies when
// WithHealthPolicy is omitted.
func DefaultHealthPolicy() HealthPolicy {
	p := health.DefaultPolicy()
	return HealthPolicy{HoldTicks: p.HoldTicks, ReadmitTicks: p.ReadmitTicks}
}

// WithHealthPolicy sets the degraded-ingestion policy applied by
// Monitor.ObservePartial, and by Observe, which rejects degraded
// snapshots outright, to the clean ones it accepts once partial ticks
// have run. Ignored by Characterize, which takes the abnormal set as
// input. NewMonitor rejects negative HoldTicks and ReadmitTicks < 1.
func WithHealthPolicy(p HealthPolicy) Option {
	return func(c *config) {
		c.health = health.Policy{HoldTicks: p.HoldTicks, ReadmitTicks: p.ReadmitTicks}
	}
}

// WithDetectorFactory sets the per-(device, service) error-detection
// function used by Monitor. Defaults to a threshold detector with delta
// 0.05. Ignored by Characterize, which takes the abnormal set as input.
func WithDetectorFactory(factory func(device, service int) (Detector, error)) Option {
	return func(c *config) { c.factory = factory }
}

// WithMetrics instruments the Monitor against the given registry: per
// tick it records latency by phase, the abnormal-set size and churn,
// and in-process directory builds; on scrape it fills the health split
// with its lifetime counters, the networked-directory wire ledger, and
// a GC/heap sample. The metric families are listed in the Observability
// section of the package documentation. Recording is a handful of
// atomic stores per tick — no allocation, no lock — so an
// instrumented quiet tick costs what a plain one does; serve the
// registry's Handler (or call WritePrometheus) from any goroutine to
// scrape it. Ignored by Characterize, which has no window loop.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// statesFromSnapshots validates and converts two raw snapshots.
func statesFromSnapshots(prev, cur [][]float64) (*motion.Pair, error) {
	if len(prev) == 0 || len(prev) != len(cur) {
		return nil, fmt.Errorf("snapshots with %d and %d devices: %w", len(prev), len(cur), ErrInvalidInput)
	}
	ps, err := space.StateFromPoints(prev)
	if err != nil {
		return nil, fmt.Errorf("previous snapshot: %w", err)
	}
	cs, err := space.StateFromPoints(cur)
	if err != nil {
		return nil, fmt.Errorf("current snapshot: %w", err)
	}
	pair, err := motion.NewPair(ps, cs)
	if err != nil {
		return nil, err
	}
	return pair, nil
}

func toReport(res core.Result) Report {
	return Report{
		Device:       res.Device,
		Class:        toClass(res.Class),
		Rule:         res.Rule.String(),
		DenseMotions: res.Dense,
		Cost: Cost{
			MaximalMotions:    res.Cost.MaximalMotions,
			DenseMotions:      res.Cost.DenseMotions,
			NeighborsScanned:  res.Cost.NeighborsScanned,
			CollectionsTested: res.Cost.CollectionsTested,
		},
	}
}

func toClass(c core.Class) Class {
	switch c {
	case core.ClassIsolated:
		return Isolated
	case core.ClassMassive:
		return Massive
	default:
		return Unresolved
	}
}

// Characterize classifies every abnormal device over the observation
// window delimited by two snapshots. prev and cur hold one row per device
// (row = per-service QoS in [0,1], all rows the same length); abnormal
// lists the devices whose error-detection function fired.
func Characterize(prev, cur [][]float64, abnormal []int, opts ...Option) (*Outcome, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	pair, err := statesFromSnapshots(prev, cur)
	if err != nil {
		return nil, err
	}
	// A one-shot window is the Monitor's decision with no directory
	// client.
	return (&Monitor{cfg: cfg}).characterizeWindow(pair, abnormal, nil)
}

// classify folds the Reports' verdicts into the M_k / I_k / U_k sets,
// in report order. The three sets share one array sized to the Reports,
// each capped at its own length; a class no device reached stays nil.
func (o *Outcome) classify() {
	var n [Unresolved + 1]int
	for i := range o.Reports {
		n[o.Reports[i].Class]++
	}
	ids := make([]int, len(o.Reports))
	var byClass [Unresolved + 1][]int
	at := 0
	for c, k := range n {
		if k > 0 {
			byClass[c] = ids[at : at : at+k]
			at += k
		}
	}
	for i := range o.Reports {
		c := o.Reports[i].Class
		byClass[c] = append(byClass[c], o.Reports[i].Device)
	}
	o.Massive, o.Isolated, o.Unresolved = byClass[Massive], byClass[Isolated], byClass[Unresolved]
}

// outcomeFromDecisions folds one window's decisions — computed
// in-process or decoded off the wire, the shapes are identical — into
// an unclassified Outcome with the summed directory traffic.
func outcomeFromDecisions(decisions []dist.Decision, total dist.Stats) *Outcome {
	out := &Outcome{
		Reports: make([]Report, len(decisions)),
		Dist: &DistStats{
			Messages:     total.Messages,
			Trajectories: total.Trajectories,
			ViewSize:     total.ViewSize,
		},
	}
	for i := range decisions {
		out.Reports[i] = toReport(decisions[i].Result)
	}
	return out
}

// CharacterizeDevice classifies a single abnormal device and returns the
// Report Characterize gives it, cost included. Like Characterize, it
// builds the motion graph of the whole abnormal set and decides the
// device from its connected component, which may reach well beyond
// distance 4r of the device. By the paper's locality result, which
// internal/core's TestLocality4r checks, the verdict equals the one
// decided on the trajectories within 4r alone: the strictly local
// operation a monitored device runs on its own.
func CharacterizeDevice(prev, cur [][]float64, abnormal []int, device int, opts ...Option) (Report, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	pair, err := statesFromSnapshots(prev, cur)
	if err != nil {
		return Report{}, err
	}
	char, err := core.New(pair, abnormal, cfg.core())
	if err != nil {
		return Report{}, err
	}
	res, err := char.Characterize(device)
	if err != nil {
		return Report{}, err
	}
	return toReport(res), nil
}
