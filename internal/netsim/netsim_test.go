package netsim

import (
	"errors"
	"math"
	"testing"
)

func baseNet(t testing.TB) *Network {
	t.Helper()
	n, err := New(Config{
		Aggregations:     2,
		DSLAMsPerAgg:     3,
		GatewaysPerDSLAM: 4,
		Services:         2,
		BaseQoS:          0.95,
		Noise:            0, // exact values for unit tests
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	t.Parallel()

	bad := []Config{
		{Aggregations: 0, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 1, Services: 1, BaseQoS: 0.9},
		{Aggregations: 1, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 1, Services: 0, BaseQoS: 0.9},
		{Aggregations: 1, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 1, Services: 1, BaseQoS: 0},
		{Aggregations: 1, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 1, Services: 1, BaseQoS: 1.2},
		{Aggregations: 1, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 1, Services: 1, BaseQoS: 0.9, Noise: 0.9},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrNetConfig) {
			t.Errorf("config %d: error = %v, want ErrNetConfig", i, err)
		}
	}
}

func TestTopologyAddressing(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	if n.Gateways() != 24 || n.Dim() != 2 {
		t.Fatalf("Gateways/Dim = %d/%d", n.Gateways(), n.Dim())
	}
	if n.DSLAMOf(0) != 0 || n.DSLAMOf(3) != 0 || n.DSLAMOf(4) != 1 || n.DSLAMOf(23) != 5 {
		t.Error("DSLAMOf misbehaved")
	}
	if n.AggregationOf(0) != 0 || n.AggregationOf(11) != 0 || n.AggregationOf(12) != 1 {
		t.Error("AggregationOf misbehaved")
	}
}

func TestSampleFaultFree(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	st, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	for gw := 0; gw < n.Gateways(); gw++ {
		for svc := 0; svc < n.Dim(); svc++ {
			if got := st.At(gw)[svc]; math.Abs(got-0.95) > 1e-12 {
				t.Fatalf("gateway %d service %d QoS = %v, want 0.95", gw, svc, got)
			}
		}
	}
}

func TestFaultScopes(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name     string
		fault    Fault
		impacted []int
	}{
		{
			"gateway",
			Fault{Component: Component{LevelGateway, 5}, Severity: 0.5},
			[]int{5},
		},
		{
			"dslam",
			Fault{Component: Component{LevelDSLAM, 1}, Severity: 0.5},
			[]int{4, 5, 6, 7},
		},
		{
			"aggregation",
			Fault{Component: Component{LevelAggregation, 1}, Severity: 0.5},
			[]int{12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23},
		},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			n := baseNet(t)
			got := n.Impacted(tt.fault)
			if len(got) != len(tt.impacted) {
				t.Fatalf("Impacted = %v, want %v", got, tt.impacted)
			}
			for i := range got {
				if got[i] != tt.impacted[i] {
					t.Fatalf("Impacted = %v, want %v", got, tt.impacted)
				}
			}
			id, err := n.Inject(tt.fault)
			if err != nil {
				t.Fatal(err)
			}
			st, err := n.Sample()
			if err != nil {
				t.Fatal(err)
			}
			inScope := make(map[int]bool)
			for _, g := range tt.impacted {
				inScope[g] = true
			}
			for gw := 0; gw < n.Gateways(); gw++ {
				want := 0.95
				if inScope[gw] {
					want = 0.95 * 0.5
				}
				if got := st.At(gw)[0]; math.Abs(got-want) > 1e-12 {
					t.Fatalf("gateway %d QoS = %v, want %v", gw, got, want)
				}
			}
			if err := n.Clear(id); err != nil {
				t.Fatal(err)
			}
			st, err = n.Sample()
			if err != nil {
				t.Fatal(err)
			}
			if got := st.At(tt.impacted[0])[0]; math.Abs(got-0.95) > 1e-12 {
				t.Fatalf("after Clear, QoS = %v, want 0.95", got)
			}
		})
	}
}

func TestCoreAndBackendFaults(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	coreFault, err := n.Inject(Fault{Component: Component{LevelCore, 0}, Severity: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	for gw := 0; gw < n.Gateways(); gw++ {
		if got := st.At(gw)[0]; math.Abs(got-0.95*0.8) > 1e-12 {
			t.Fatalf("core fault: gateway %d = %v", gw, got)
		}
	}
	if err := n.Clear(coreFault); err != nil || n.ActiveFaults() != 0 {
		t.Fatalf("Clear left %d faults (err %v)", n.ActiveFaults(), err)
	}

	// Backend fault hits only its service.
	if _, err := n.Inject(Fault{Component: Component{LevelBackend, 1}, Severity: 0.5}); err != nil {
		t.Fatal(err)
	}
	st, err = n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.At(0)[0]; math.Abs(got-0.95) > 1e-12 {
		t.Errorf("service 0 should be unaffected: %v", got)
	}
	if got := st.At(0)[1]; math.Abs(got-0.475) > 1e-12 {
		t.Errorf("service 1 should be halved: %v", got)
	}
}

func TestServiceRestrictedFault(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	if _, err := n.Inject(Fault{
		Component: Component{LevelDSLAM, 0},
		Severity:  0.4,
		Services:  []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.At(0)[0]; math.Abs(got-0.95*0.6) > 1e-12 {
		t.Errorf("restricted service 0 = %v", got)
	}
	if got := st.At(0)[1]; math.Abs(got-0.95) > 1e-12 {
		t.Errorf("unrestricted service 1 = %v", got)
	}
}

func TestFaultComposition(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	if _, err := n.Inject(Fault{Component: Component{LevelDSLAM, 0}, Severity: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Inject(Fault{Component: Component{LevelGateway, 0}, Severity: 0.5}); err != nil {
		t.Fatal(err)
	}
	st, err := n.Sample()
	if err != nil {
		t.Fatal(err)
	}
	// Gateway 0 stacks both faults multiplicatively.
	if got := st.At(0)[0]; math.Abs(got-0.95*0.25) > 1e-12 {
		t.Errorf("stacked faults = %v, want %v", got, 0.95*0.25)
	}
	// Gateway 1 only suffers the DSLAM fault.
	if got := st.At(1)[0]; math.Abs(got-0.95*0.5) > 1e-12 {
		t.Errorf("dslam-only = %v", got)
	}
}

func TestInjectValidation(t *testing.T) {
	t.Parallel()

	n := baseNet(t)
	bad := []Fault{
		{Component: Component{LevelGateway, 99}, Severity: 0.5},
		{Component: Component{LevelDSLAM, -1}, Severity: 0.5},
		{Component: Component{LevelAggregation, 7}, Severity: 0.5},
		{Component: Component{LevelCore, 1}, Severity: 0.5},
		{Component: Component{LevelBackend, 5}, Severity: 0.5},
		{Component: Component{Level(99), 0}, Severity: 0.5},
		{Component: Component{LevelGateway, 0}, Severity: 0},
		{Component: Component{LevelGateway, 0}, Severity: 1.5},
		{Component: Component{LevelGateway, 0}, Severity: 0.5, Services: []int{9}},
	}
	for i, f := range bad {
		if _, err := n.Inject(f); !errors.Is(err, ErrNetConfig) {
			t.Errorf("fault %d: error = %v, want ErrNetConfig", i, err)
		}
	}
	if err := n.Clear(42); !errors.Is(err, ErrNetConfig) {
		t.Errorf("Clear(42) = %v, want ErrNetConfig", err)
	}
}

func TestNoiseBoundedAndDeterministic(t *testing.T) {
	t.Parallel()

	cfg := Config{
		Aggregations: 1, DSLAMsPerAgg: 1, GatewaysPerDSLAM: 10,
		Services: 2, BaseQoS: 0.9, Noise: 0.01, Seed: 7,
	}
	n1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := n1.Sample()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := n2.Sample()
	if err != nil {
		t.Fatal(err)
	}
	for gw := 0; gw < 10; gw++ {
		for svc := 0; svc < 2; svc++ {
			v1, v2 := s1.At(gw)[svc], s2.At(gw)[svc]
			if v1 != v2 {
				t.Fatal("same seed must give identical samples")
			}
			if math.Abs(v1-0.9) > 0.01+1e-12 {
				t.Fatalf("noise out of bounds: %v", v1)
			}
		}
	}
}

func TestLevelString(t *testing.T) {
	t.Parallel()

	want := map[Level]string{
		LevelGateway: "gateway", LevelDSLAM: "dslam",
		LevelAggregation: "aggregation", LevelCore: "core",
		LevelBackend: "backend", Level(0): "unknown",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), s)
		}
	}
}
