package anomalia

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dirnet"
)

// spreadWindow places the paper's Figure 5 ring — eight devices in
// overlapping dense motions that only Theorem 7 decides massive — at
// fleet ids far apart (2 and 3, four around n/2, n−2 and n−1), plus
// one device moving alone at id 0, in a two-service fleet of n devices
// whose other devices sit still at 0.95. The ring's lowest member is
// fleet device 2 and window-local device 1. The ring's second service
// rises by 0.1 at k, which moves every member past the default
// detectors' delta and translates the ring, so its motions are
// unchanged. It returns both snapshots and the sorted abnormal set.
func spreadWindow(n int) (prev, cur [][]float64, abnormal []int) {
	ring := []int{2, 3, n/2 - 1, n / 2, n/2 + 1, n/2 + 2, n - 2, n - 1}
	anchors := [][2]float64{{0.30, 0.30}, {0.49, 0.40}, {0.68, 0.30}, {0.49, 0.16}}
	prev, cur = make([][]float64, n), make([][]float64, n)
	for j := range prev {
		prev[j], cur[j] = []float64{0.95, 0.95}, []float64{0.95, 0.95}
	}
	for i, j := range ring {
		off := -0.002 + 0.004*float64(i%2)
		a := anchors[i/2]
		prev[j] = []float64{a[0] + off, 0.5}
		cur[j] = []float64{a[1] + off, 0.6}
	}
	prev[0], cur[0] = []float64{0.9, 0.05}, []float64{0.05, 0.9}
	abnormal = append([]int{0}, ring...)
	return prev, cur, abnormal
}

// pipeDirectory serves a directory over in-process pipes to one
// shard server per address.
func pipeDirectory(t *testing.T, addrs ...string) DirectoryConfig {
	t.Helper()
	servers := map[string]*dirnet.Server{}
	for _, a := range addrs {
		srv := dirnet.NewServer()
		t.Cleanup(srv.Close)
		servers[a] = srv
	}
	return DirectoryConfig{
		Addrs: addrs,
		Dial: func(addr string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go servers[addr].HandleConn(c2)
			return c1, nil
		},
	}
}

// TestMonitorCompactWindowParity: a Monitor decides each window on a
// compact pair over the abnormal rows alone, in window-local ids, and
// renames the Outcome to fleet ids. With the abnormal devices far
// apart in id — 0, n/2 and n−1 among them — its Outcome on the
// centralized, in-process directory and networked directory paths must
// equal Characterize's on the full snapshots, dense motions and
// directory traffic included, and a characterization error (an exact
// search over its budget) must name the failing device by its fleet
// id, 2, not its window-local id, 1, as Characterize's does.
func TestMonitorCompactWindowParity(t *testing.T) {
	t.Parallel()

	const n = 3*2048 + 7
	prev, cur, abnormal := spreadWindow(n)
	base := []Option{WithRadius(0.1), WithTau(3), WithIngestWorkers(3)}
	for _, tc := range []struct {
		name string
		opts []Option
		// ref is the one-shot decision the path must reproduce; a
		// networked window the shards reject falls back to the
		// centralized one.
		ref, refErr []Option
	}{
		{"centralized", nil, nil, nil},
		{"in-process", []Option{WithDistributed(true)}, []Option{WithDistributed(true)}, []Option{WithDistributed(true)}},
		{"networked", []Option{WithDistributed(true), WithDirectory(pipeDirectory(t, "s0", "s1"))}, []Option{WithDistributed(true)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, budget := range []int{0, 1} {
				var extra []Option
				if budget > 0 {
					extra = []Option{WithBudget(budget)}
				}
				opts := slices.Concat(base, tc.opts, extra)
				m, err := NewMonitor(n, 2, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Observe(prev); err != nil {
					t.Fatal(err)
				}
				got, gotErr := m.Observe(cur)
				if budget == 0 {
					want, err := Characterize(prev, cur, abnormal, slices.Concat(base, tc.ref)...)
					if err != nil {
						t.Fatal(err)
					}
					if gotErr != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("Monitor outcome\n%+v (%v)\nCharacterize on the full snapshots\n%+v", got, gotErr, want)
					}
					if len(want.Massive) != 8 || !slices.Equal(want.Isolated, []int{0}) || len(want.Reports[1].DenseMotions) != 2 {
						t.Fatalf("fixture: massive %v isolated %v, device 2's motions %v", want.Massive, want.Isolated, want.Reports[1].DenseMotions)
					}
				} else {
					_, wantErr := Characterize(prev, cur, abnormal, slices.Concat(base, tc.refErr, extra)...)
					if !errors.Is(gotErr, core.ErrBudget) || wantErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("Monitor error %v, Characterize on the full snapshots %v", gotErr, wantErr)
					}
					// Every ring member fails its search, and the error is
					// the lowest one's.
					if !strings.HasPrefix(gotErr.Error(), "device 2: ") || strings.Contains(gotErr.Error(), "device 1:") {
						t.Fatalf("error %q does not name fleet device 2", gotErr)
					}
				}
				if tc.name == "networked" {
					want := DirStats{Windows: 1, Networked: 1}
					if budget > 0 {
						want = DirStats{Windows: 1, Degraded: 1}
					}
					if ds := m.DirStats(); ds.Windows != want.Windows || ds.Networked != want.Networked || ds.Degraded != want.Degraded {
						t.Fatalf("budget %d: directory ledger %+v, want %+v", budget, ds, want)
					}
				}
			}
		})
	}
}

// TestMonitorStrictRejectFirstLastRow: on four ingest workers, a strict
// tick whose only unclean row is the fleet's first or its last — the
// first row of the first shard, the last of the last — is rejected
// before anything is written: positions, clock and health stay bit for
// bit as they were, and the next window's Outcome equals that of a
// twin Monitor that never saw the rejected ticks.
func TestMonitorStrictRejectFirstLastRow(t *testing.T) {
	t.Parallel()

	const n = 4 * 2048
	m, err := NewMonitor(n, 2, WithIngestWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewMonitor(n, 2, WithIngestWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	snap := func(moved map[int]float64) [][]float64 {
		rows := make([][]float64, n)
		for j := range rows {
			rows[j] = []float64{0.5 + float64(j%97)/1000, 0.7}
			if v, ok := moved[j]; ok {
				rows[j] = []float64{v, v}
			}
		}
		return rows
	}
	// A training tick, then a partial one that loses device 9, which
	// goes stale: the health the rejected ticks must leave alone.
	lossy := snap(nil)
	lossy[9] = nil
	for _, mon := range []*Monitor{m, twin} {
		if _, err := mon.Observe(snap(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.ObservePartial(lossy); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := m.DeviceHealth(9); st != HealthStale {
		t.Fatalf("device 9 health %v, want stale", st)
	}
	positions, hs := m.prev.Clone(), m.HealthStats()

	for name, corrupt := range map[string]func([][]float64){
		"first-nan":   func(s [][]float64) { s[0][1] = math.NaN() },
		"first-nil":   func(s [][]float64) { s[0] = nil },
		"first-short": func(s [][]float64) { s[0] = s[0][:1] },
		"last-inf":    func(s [][]float64) { s[n-1][1] = math.Inf(-1) },
		"last-nil":    func(s [][]float64) { s[n-1] = nil },
		"last-wide":   func(s [][]float64) { s[n-1] = []float64{0.5, 0.5, 0.5} },
	} {
		// Three more rows jump, so a Step run before the rejection
		// would move positions and flag devices.
		bad := snap(map[int]float64{1: 0.1, n / 2: 0.1, n - 2: 0.1})
		corrupt(bad)
		row := 0
		if strings.HasPrefix(name, "last") {
			row = n - 1
		}
		if _, err := m.Observe(bad); !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), fmt.Sprintf("device %d ", row)) {
			t.Fatalf("%s: error %v, want ErrInvalidInput naming device %d", name, err, row)
		}
		if m.Time() != 2 {
			t.Fatalf("%s: clock %d after a rejected tick, want 2", name, m.Time())
		}
		for i, x := range m.prev.Span(0, n) {
			if y := positions.Span(0, n)[i]; math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: device %d service %d at %v after a rejected tick, was %v", name, i/2, i%2, x, y)
			}
		}
		if got := m.HealthStats(); got != hs {
			t.Fatalf("%s: health %+v after a rejected tick, was %+v", name, got, hs)
		}
		if st, _ := m.DeviceHealth(9); st != HealthStale {
			t.Fatalf("%s: device 9 health %v, want stale", name, st)
		}
	}

	fault := snap(map[int]float64{0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1, n / 2: 0.9, n - 1: 0.1})
	got, err := m.Observe(fault)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Observe(fault)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil || len(want.Reports) != 6 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the rejected ticks\n%+v\ntwin\n%+v", got, want)
	}
	if got, want := m.HealthStats(), twin.HealthStats(); got != want {
		t.Fatalf("health %+v, twin %+v", got, want)
	}
	if !reflect.DeepEqual(m.prev, twin.prev) {
		t.Fatal("positions diverge from the twin's")
	}
}
