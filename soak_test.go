package anomalia_test

// Long-run integration ("soak") test: the full production stack — network
// substrate with scheduled transient faults, per-gateway detectors, the
// streaming monitor, and the adaptive sampling controller — run for a few
// hundred observation windows. It asserts the end-to-end behaviour the
// paper promises: silence during calm periods, correct massive/isolated
// attribution during incidents, and sampling that speeds up under
// anomalies and relaxes afterwards.

import (
	"testing"
	"time"

	"anomalia"

	"anomalia/internal/netsim"
	"anomalia/internal/sets"
)

func TestSoakFullStack(t *testing.T) {
	t.Parallel()

	const (
		aggs      = 2
		dslams    = 3
		gws       = 8
		services  = 2
		nGateways = aggs * dslams * gws
		ticks     = 240
	)
	net, err := netsim.New(netsim.Config{
		Aggregations:     aggs,
		DSLAMsPerAgg:     dslams,
		GatewaysPerDSLAM: gws,
		Services:         services,
		BaseQoS:          0.95,
		Noise:            0.004,
		Seed:             99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Timeline: a transient DSLAM outage, later a gateway hardware fault,
	// later an aggregation-level incident.
	dslamFault := netsim.Fault{Component: netsim.Component{Level: netsim.LevelDSLAM, Index: 2}, Severity: 0.3}
	gwFault := netsim.Fault{Component: netsim.Component{Level: netsim.LevelGateway, Index: 44}, Severity: 0.5}
	aggFault := netsim.Fault{Component: netsim.Component{Level: netsim.LevelAggregation, Index: 0}, Severity: 0.25}
	runner, err := netsim.NewRunner(net, []netsim.ScheduledFault{
		{Fault: dslamFault, Start: 60, Duration: 1},
		{Fault: gwFault, Start: 120, Duration: 1},
		{Fault: aggFault, Start: 180, Duration: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	mon, err := anomalia.NewMonitor(nGateways, services,
		anomalia.WithRadius(0.03), anomalia.WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := anomalia.NewSamplingController(anomalia.SamplerConfig{
		Min: time.Second, Max: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		falseWindows int
		verdicts     = map[int]*anomalia.Outcome{}
	)
	for tick := 0; tick < ticks; tick++ {
		st, truthImpacted, err := runner.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		snapshot := make([][]float64, nGateways)
		for g := 0; g < nGateways; g++ {
			snapshot[g] = st.At(g)
		}
		out, err := mon.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		ctl.Record(out != nil)
		if out == nil {
			continue
		}
		if len(truthImpacted) == 0 {
			// The recovery edge (fault clearing) is itself a trajectory
			// jump and legitimately triggers detection; anything else is
			// a false alarm.
			if tick != 61 && tick != 121 && tick != 181 {
				falseWindows++
			}
			continue
		}
		verdicts[tick] = out
	}

	if falseWindows > 0 {
		t.Errorf("%d windows produced verdicts with no active fault", falseWindows)
	}

	// Tick 60: DSLAM 2 outage hits gateways 16..23 — massive for all.
	out := verdicts[60]
	if out == nil {
		t.Fatal("DSLAM outage not detected at tick 60")
	}
	if len(out.Massive) != gws {
		t.Errorf("tick 60: massive = %v, want the 8 DSLAM gateways", out.Massive)
	}
	if !sets.ContainsInt(out.Massive, 16) || !sets.ContainsInt(out.Massive, 23) {
		t.Errorf("tick 60: wrong massive set %v", out.Massive)
	}

	// Tick 120: lone gateway 44 fault — isolated.
	out = verdicts[120]
	if out == nil {
		t.Fatal("gateway fault not detected at tick 120")
	}
	if !sets.EqualInts(out.Isolated, []int{44}) {
		t.Errorf("tick 120: isolated = %v, want [44]", out.Isolated)
	}

	// Tick 180: aggregation 0 incident hits gateways 0..23 — massive.
	out = verdicts[180]
	if out == nil {
		t.Fatal("aggregation fault not detected at tick 180")
	}
	if len(out.Massive) != aggs*dslams*gws/2 {
		t.Errorf("tick 180: massive = %d gateways, want 24", len(out.Massive))
	}

	// The sampling controller must have relaxed back to the ceiling after
	// the long calm tail.
	if ctl.Interval() != time.Minute {
		t.Errorf("sampling interval = %v after calm tail, want ceiling", ctl.Interval())
	}
}

// TestSoakDistributedPersistent drives the distributed path through
// hundreds of consecutive Observe windows: a distributed monitor (which
// indexes each abnormal window in a fresh directory service) and a
// centralized monitor consume the same snapshot stream, under a dense
// fault schedule so a directory is built for many abnormal windows.
// Verdicts must agree tick for tick — the paper's locality result end
// to end — and the distributed outcomes must carry directory traffic.
func TestSoakDistributedPersistent(t *testing.T) {
	t.Parallel()

	const (
		aggs      = 2
		dslams    = 2
		gws       = 8
		services  = 2
		nGateways = aggs * dslams * gws
		ticks     = 220
	)
	net, err := netsim.New(netsim.Config{
		Aggregations:     aggs,
		DSLAMsPerAgg:     dslams,
		GatewaysPerDSLAM: gws,
		Services:         services,
		BaseQoS:          0.95,
		Noise:            0.004,
		Seed:             1234,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A dense rotation of faults: some component misbehaves every few
	// ticks, so a large share of the ≥200 windows is abnormal and the
	// directory is built and decided on again and again.
	var schedule []netsim.ScheduledFault
	for tick := 8; tick < ticks-4; tick += 6 {
		var f netsim.Fault
		switch (tick / 6) % 3 {
		case 0:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelDSLAM, Index: (tick / 6) % (aggs * dslams)}, Severity: 0.3}
		case 1:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelGateway, Index: (tick * 7) % nGateways}, Severity: 0.5}
		default:
			f = netsim.Fault{Component: netsim.Component{Level: netsim.LevelAggregation, Index: (tick / 6) % aggs}, Severity: 0.25}
		}
		schedule = append(schedule, netsim.ScheduledFault{Fault: f, Start: tick, Duration: 1 + tick%2})
	}
	runner, err := netsim.NewRunner(net, schedule)
	if err != nil {
		t.Fatal(err)
	}

	opts := []anomalia.Option{anomalia.WithRadius(0.03), anomalia.WithTau(3)}
	central, err := anomalia.NewMonitor(nGateways, services, opts...)
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := anomalia.NewMonitor(nGateways, services,
		append(opts, anomalia.WithDistributed(true))...)
	if err != nil {
		t.Fatal(err)
	}

	abnormalWindows := 0
	for tick := 0; tick < ticks; tick++ {
		st, _, err := runner.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		snapshot := make([][]float64, nGateways)
		for g := 0; g < nGateways; g++ {
			snapshot[g] = st.At(g)
		}
		want, err := central.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d centralized: %v", tick, err)
		}
		got, err := distributed.Observe(snapshot)
		if err != nil {
			t.Fatalf("tick %d distributed: %v", tick, err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("tick %d: distributed detection diverged (central=%v dist=%v)", tick, want != nil, got != nil)
		}
		if want == nil {
			continue
		}
		abnormalWindows++
		if !sets.EqualInts(got.Massive, want.Massive) ||
			!sets.EqualInts(got.Isolated, want.Isolated) ||
			!sets.EqualInts(got.Unresolved, want.Unresolved) {
			t.Fatalf("tick %d: verdicts diverged:\ncentral M=%v I=%v U=%v\ndist    M=%v I=%v U=%v",
				tick, want.Massive, want.Isolated, want.Unresolved,
				got.Massive, got.Isolated, got.Unresolved)
		}
		if got.Dist == nil || got.Dist.Messages < 2*len(got.Reports) {
			t.Fatalf("tick %d: distributed outcome lacks plausible traffic stats: %+v", tick, got.Dist)
		}
	}
	// The schedule must actually have exercised the distributed path:
	// many abnormal windows, i.e. many directory builds.
	if abnormalWindows < 30 {
		t.Fatalf("only %d abnormal windows in %d ticks — soak did not stress the distributed directory", abnormalWindows, ticks)
	}
}
