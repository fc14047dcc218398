package experiments

import (
	"fmt"
	"net"

	"anomalia/internal/core"
	"anomalia/internal/dirnet"
	"anomalia/internal/dist"
	"anomalia/internal/scenario"
	"anomalia/internal/stats"
)

// DistCostConfig parameterizes the distributed-deployment cost study: the
// message and trajectory traffic each abnormal device generates when it
// gathers its 4r view from the directory service.
type DistCostConfig struct {
	// N, D, R, Tau mirror the generator parameters.
	N, D int
	R    float64
	Tau  int
	// As sweeps the error load.
	As []int
	// G is the isolated-error probability.
	G float64
	// Steps is the number of windows per cell.
	Steps int
	// Seed drives the simulation.
	Seed int64
}

// DefaultDistCost returns the cost study at the paper's operating point.
func DefaultDistCost() DistCostConfig {
	return DistCostConfig{
		N: 1000, D: 2, R: 0.03, Tau: 3,
		As:    []int{1, 10, 20, 40, 60},
		G:     0.3,
		Steps: 5,
		Seed:  1,
	}
}

// DistCostDeterministicCols is the number of leading columns of the
// DistCost table that are a pure function of the configuration and
// pinned by the determinism test: the billed message economy. The wire
// columns after them count actual protocol bytes and exchanges over an
// in-process transport, so they are reported, not pinned.
const DistCostDeterministicCols = 5

// DistCost measures the per-device communication cost of the distributed
// decision: messages exchanged with the directory, trajectories
// transferred, and 4r-view sizes — the quantities that make the approach
// scale where the centralized clustering of [15] does not.
//
// Next to the billed economy sit the measured wire columns: every
// window is additionally decided over the dirnet protocol through an
// in-process transport, and "wire B/win" (frame bytes both directions),
// "RT/win" (request/response exchanges) and "retries" report what the
// networked deployment actually puts on the wire per abnormal window —
// retries must read 0 here, the transport is faultless.
func DistCost(cfg DistCostConfig) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Distributed deployment cost per deciding device (n=%d, G=%g)",
			cfg.N, cfg.G),
		Header: []string{"A", "mean |A_k|", "messages", "trajectories", "view size", "wire B/win", "RT/win", "retries"},
	}
	coreCfg := core.Config{R: cfg.R, Tau: cfg.Tau, Exact: true}
	for _, a := range cfg.As {
		gen, err := scenario.New(scenario.Config{
			N: cfg.N, D: cfg.D, R: cfg.R, Tau: cfg.Tau,
			A: a, G: cfg.G,
			Concomitant: true, MaxShift: 2 * cfg.R,
			Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		var msgs, trajs, views, abnormal stats.Welford
		// The wire fixture: one shard server behind an in-process pipe,
		// deciding the same windows over the dirnet protocol so the table
		// can report measured bytes and round-trips next to the bills.
		wireSrv := dirnet.NewServer()
		wireClient, err := dirnet.NewClient(dirnet.Config{
			Addrs: []string{"wire-0"},
			Dial: func(string) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go wireSrv.HandleConn(c2)
				return c1, nil
			},
		})
		if err != nil {
			return nil, err
		}
		wireWindows := 0
		for s := 0; s < cfg.Steps; s++ {
			step, err := gen.Step()
			if err != nil {
				return nil, fmt.Errorf("A=%d window %d: %w", a, s, err)
			}
			if len(step.Abnormal) == 0 {
				continue
			}
			dir, err := dist.NewDirectory(step.Pair, step.Abnormal, cfg.R)
			if err != nil {
				return nil, err
			}

			if _, _, err := wireClient.DecideWindow(step.Pair, step.Abnormal, coreCfg); err != nil {
				return nil, fmt.Errorf("A=%d window %d over the wire: %w", a, s, err)
			}
			wireWindows++

			abnormal.Add(float64(len(step.Abnormal)))
			decisions, _, err := dist.DecideAll(dir, coreCfg)
			if err != nil {
				return nil, fmt.Errorf("A=%d window %d: %w", a, s, err)
			}
			for _, dec := range decisions {
				msgs.Add(float64(dec.Stats.Messages))
				trajs.Add(float64(dec.Stats.Trajectories))
				views.Add(float64(dec.Stats.ViewSize))
			}
		}
		wireStats := wireClient.Stats()
		wireClient.Close()
		wireSrv.Close()
		wireBytes, wireRTs := 0.0, 0.0
		if wireWindows > 0 {
			wireBytes = float64(wireStats.BytesSent+wireStats.BytesReceived) / float64(wireWindows)
			wireRTs = float64(wireStats.RoundTrips) / float64(wireWindows)
		}
		t.AddRow(
			fmt.Sprintf("%d", a),
			f(abnormal.Mean()),
			f(msgs.Mean()),
			f(trajs.Mean()),
			f(views.Mean()),
			f(wireBytes),
			f(wireRTs),
			fmt.Sprintf("%d", wireStats.Retries),
		)
	}
	return t, nil
}
