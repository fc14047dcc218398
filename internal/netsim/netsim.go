// Package netsim is the network substrate substituting for the production
// gateway fleets that motivate the paper (Section I): a hierarchical ISP
// access network — core router, aggregation routers, DSLAMs, home
// gateways — delivering d services whose end-to-end QoS each gateway
// measures in [0,1].
//
// Faults injected at any component degrade the QoS of every service path
// crossing it, for every gateway in the component's subtree — producing
// exactly the massive/isolated dichotomy the characterizer must recover:
// a DSLAM or aggregation fault hits a whole subtree coherently (massive,
// network-level), a gateway fault hits one device (isolated, local).
// The fault scope is the ground truth for end-to-end pipeline tests.
package netsim

import (
	"errors"
	"fmt"

	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// Level identifies a tier of the access network.
type Level int

// Network tiers, from the leaves up, plus the per-service backends.
const (
	LevelGateway Level = iota + 1
	LevelDSLAM
	LevelAggregation
	LevelCore
	LevelBackend
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelGateway:
		return "gateway"
	case LevelDSLAM:
		return "dslam"
	case LevelAggregation:
		return "aggregation"
	case LevelCore:
		return "core"
	case LevelBackend:
		return "backend"
	default:
		return "unknown"
	}
}

// Component addresses one network element: the Index is global within the
// level (gateway 0..G-1, DSLAM 0..D-1, aggregation 0..A-1, core 0,
// backend 0..services-1).
type Component struct {
	Level Level
	Index int
}

// Fault is a QoS degradation at a component: every service path crossing
// the component loses a factor (1 - Severity). Services restricts the
// affected services; nil means all.
type Fault struct {
	Component Component
	// Severity in (0, 1]: fraction of QoS lost at this component.
	Severity float64
	// Services restricts the fault to specific service indices (nil: all).
	Services []int
}

// Config sizes the simulated network.
type Config struct {
	// Aggregations is the number of aggregation routers under the core.
	Aggregations int
	// DSLAMsPerAgg is the number of DSLAMs per aggregation router.
	DSLAMsPerAgg int
	// GatewaysPerDSLAM is the number of home gateways per DSLAM.
	GatewaysPerDSLAM int
	// Services is the number of monitored services d.
	Services int
	// BaseQoS is the fault-free per-service QoS level (e.g. 0.95).
	BaseQoS float64
	// Noise is the half-amplitude of the uniform measurement noise.
	Noise float64
	// Seed drives the noise stream.
	Seed int64
}

// ErrNetConfig is returned for invalid network configurations or fault
// specifications.
var ErrNetConfig = errors.New("netsim: invalid configuration")

// Network is a simulated access network with live fault state.
type Network struct {
	cfg    Config
	rng    *stats.RNG
	faults map[int]Fault
	nextID int
	nGw    int
	nDslam int
}

// New validates the configuration and builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.Aggregations < 1 || cfg.DSLAMsPerAgg < 1 || cfg.GatewaysPerDSLAM < 1 {
		return nil, fmt.Errorf("topology %d/%d/%d: %w",
			cfg.Aggregations, cfg.DSLAMsPerAgg, cfg.GatewaysPerDSLAM, ErrNetConfig)
	}
	if cfg.Services < space.MinDim || cfg.Services > space.MaxDim {
		return nil, fmt.Errorf("services = %d: %w", cfg.Services, ErrNetConfig)
	}
	if cfg.BaseQoS <= 0 || cfg.BaseQoS > 1 {
		return nil, fmt.Errorf("base QoS %v: %w", cfg.BaseQoS, ErrNetConfig)
	}
	if cfg.Noise < 0 || cfg.Noise >= cfg.BaseQoS {
		return nil, fmt.Errorf("noise %v: %w", cfg.Noise, ErrNetConfig)
	}
	nDslam := cfg.Aggregations * cfg.DSLAMsPerAgg
	return &Network{
		cfg:    cfg,
		rng:    stats.NewRNG(cfg.Seed),
		faults: make(map[int]Fault),
		nGw:    nDslam * cfg.GatewaysPerDSLAM,
		nDslam: nDslam,
	}, nil
}

// Gateways returns the number of home gateways (monitored devices).
func (n *Network) Gateways() int { return n.nGw }

// Dim returns the number of services d.
func (n *Network) Dim() int { return n.cfg.Services }

// DSLAMOf returns the DSLAM index serving gateway g.
func (n *Network) DSLAMOf(g int) int { return g / n.cfg.GatewaysPerDSLAM }

// AggregationOf returns the aggregation router index above gateway g.
func (n *Network) AggregationOf(g int) int { return n.DSLAMOf(g) / n.cfg.DSLAMsPerAgg }

// validateComponent checks that a component address exists.
func (n *Network) validateComponent(c Component) error {
	switch c.Level {
	case LevelGateway:
		if c.Index < 0 || c.Index >= n.nGw {
			return fmt.Errorf("gateway %d of %d: %w", c.Index, n.nGw, ErrNetConfig)
		}
	case LevelDSLAM:
		if c.Index < 0 || c.Index >= n.nDslam {
			return fmt.Errorf("dslam %d of %d: %w", c.Index, n.nDslam, ErrNetConfig)
		}
	case LevelAggregation:
		if c.Index < 0 || c.Index >= n.cfg.Aggregations {
			return fmt.Errorf("aggregation %d of %d: %w", c.Index, n.cfg.Aggregations, ErrNetConfig)
		}
	case LevelCore:
		if c.Index != 0 {
			return fmt.Errorf("core %d: %w", c.Index, ErrNetConfig)
		}
	case LevelBackend:
		if c.Index < 0 || c.Index >= n.cfg.Services {
			return fmt.Errorf("backend %d of %d: %w", c.Index, n.cfg.Services, ErrNetConfig)
		}
	default:
		return fmt.Errorf("level %d: %w", c.Level, ErrNetConfig)
	}
	return nil
}

// Inject activates a fault and returns its id for later clearing.
func (n *Network) Inject(f Fault) (int, error) {
	if err := n.validateComponent(f.Component); err != nil {
		return 0, err
	}
	if f.Severity <= 0 || f.Severity > 1 {
		return 0, fmt.Errorf("severity %v: %w", f.Severity, ErrNetConfig)
	}
	for _, s := range f.Services {
		if s < 0 || s >= n.cfg.Services {
			return 0, fmt.Errorf("service %d of %d: %w", s, n.cfg.Services, ErrNetConfig)
		}
	}
	id := n.nextID
	n.nextID++
	n.faults[id] = f
	return id, nil
}

// Clear removes an active fault.
func (n *Network) Clear(id int) error {
	if _, ok := n.faults[id]; !ok {
		return fmt.Errorf("fault %d not active: %w", id, ErrNetConfig)
	}
	delete(n.faults, id)
	return nil
}

// ActiveFaults returns the number of live faults.
func (n *Network) ActiveFaults() int { return len(n.faults) }

// onPath reports whether the component sits on the service path of
// (gateway, service): gateway -> DSLAM -> aggregation -> core -> backend.
func (n *Network) onPath(c Component, gw, svc int) bool {
	switch c.Level {
	case LevelGateway:
		return c.Index == gw
	case LevelDSLAM:
		return c.Index == n.DSLAMOf(gw)
	case LevelAggregation:
		return c.Index == n.AggregationOf(gw)
	case LevelCore:
		return true
	case LevelBackend:
		return c.Index == svc
	default:
		return false
	}
}

// affects reports whether the fault degrades the given service.
func (f Fault) affects(svc int) bool {
	if len(f.Services) == 0 {
		return true
	}
	for _, s := range f.Services {
		if s == svc {
			return true
		}
	}
	return false
}

// Sample measures the end-to-end QoS of every gateway for every service:
// the base level, multiplied by (1 - severity) for each active fault on
// the path, plus measurement noise, clamped into [0,1].
func (n *Network) Sample() (*space.State, error) {
	st, err := space.NewState(n.nGw, n.cfg.Services)
	if err != nil {
		return nil, err
	}
	p := make(space.Point, n.cfg.Services)
	for gw := 0; gw < n.nGw; gw++ {
		for svc := 0; svc < n.cfg.Services; svc++ {
			q := n.cfg.BaseQoS
			for _, f := range n.sortedFaults() {
				if f.affects(svc) && n.onPath(f.Component, gw, svc) {
					q *= 1 - f.Severity
				}
			}
			q += n.cfg.Noise * (2*n.rng.Float64() - 1)
			p[svc] = q
		}
		if err := st.Set(gw, p); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// sortedFaults returns the active faults in id order so the noise stream
// consumption — and therefore every sample — is deterministic.
func (n *Network) sortedFaults() []Fault {
	out := make([]Fault, 0, len(n.faults))
	for id := 0; id < n.nextID; id++ {
		if f, ok := n.faults[id]; ok {
			out = append(out, f)
		}
	}
	return out
}

// Impacted returns the gateways whose QoS a fault degrades — the ground
// truth scope used to label anomalies massive (scope > τ) or isolated.
func (n *Network) Impacted(f Fault) []int {
	var out []int
	for gw := 0; gw < n.nGw; gw++ {
		for svc := 0; svc < n.cfg.Services; svc++ {
			if f.affects(svc) && n.onPath(f.Component, gw, svc) {
				out = append(out, gw)
				break
			}
		}
	}
	return out
}
