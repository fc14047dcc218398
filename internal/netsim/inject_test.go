package netsim

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

func injectRows(n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = 0.9
		}
		rows[i] = row
	}
	return rows
}

func TestInjectorRejectsBadConfig(t *testing.T) {
	for _, cfg := range []InjectorConfig{
		{DropProb: -0.1},
		{CorruptProb: 1.2},
		{DropProb: 0.6, CorruptProb: 0.6},
		{Outages: []Outage{{From: 3, To: 3, Start: 0, End: 1}}},
		{Outages: []Outage{{From: 0, To: 2, Start: 5, End: 5}}},
	} {
		if _, err := NewInjector(cfg); err == nil {
			t.Errorf("NewInjector(%+v): want error", cfg)
		}
	}
}

// TestInjectorDeterminism: two injectors with the same config produce
// identical degradation tick for tick.
func TestInjectorDeterminism(t *testing.T) {
	cfg := InjectorConfig{Seed: 9, DropProb: 0.1, CorruptProb: 0.1,
		Outages: []Outage{{From: 2, To: 5, Start: 3, End: 6}}}
	a, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// sameRows compares with NaN equal to NaN: corrupted values are
	// non-finite by design, which DeepEqual would call unequal.
	sameRows := func(x, y [][]float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if (x[i] == nil) != (y[i] == nil) || len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if x[i][j] != y[i][j] && !(math.IsNaN(x[i][j]) && math.IsNaN(y[i][j])) {
					return false
				}
			}
		}
		return true
	}
	rows := injectRows(32, 2)
	for tick := 0; tick < 10; tick++ {
		ra, ma := a.Apply(tick, rows)
		rb, mb := b.Apply(tick, rows)
		if !sameRows(ra, rb) || !reflect.DeepEqual(ma, mb) {
			t.Fatalf("tick %d: same seed, different degradation", tick)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestInjectorNeverMutatesInput: corruption must copy, and a clean
// delivery must alias the caller's row (no copying tax on the common
// case).
func TestInjectorNeverMutatesInput(t *testing.T) {
	inj, err := NewInjector(InjectorConfig{Seed: 4, DropProb: 0.2, CorruptProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rows := injectRows(64, 3)
	for tick := 0; tick < 20; tick++ {
		degraded, delivered := inj.Apply(tick, rows)
		for dev, row := range rows {
			for _, v := range row {
				if v != 0.9 {
					t.Fatalf("tick %d: input row %d mutated", tick, dev)
				}
			}
			switch {
			case degraded[dev] == nil:
				if delivered[dev] {
					t.Fatalf("tick %d device %d: dropped but marked delivered", tick, dev)
				}
			case delivered[dev]:
				if &degraded[dev][0] != &row[0] {
					t.Fatalf("tick %d device %d: clean delivery copied", tick, dev)
				}
			default:
				// Corrupted: a copy carrying exactly one non-finite value.
				if &degraded[dev][0] == &row[0] {
					t.Fatalf("tick %d device %d: corruption aliases the input", tick, dev)
				}
				bad := 0
				for _, v := range degraded[dev] {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						bad++
					}
				}
				if bad != 1 {
					t.Fatalf("tick %d device %d: %d non-finite values, want 1", tick, dev, bad)
				}
			}
		}
	}
	st := inj.Stats()
	if st.Dropped == 0 || st.Corrupted == 0 {
		t.Fatalf("stats %+v: expected both drops and corruptions at these rates", st)
	}
}

// outageSpan is the union of devices any outage silences at the given
// tick, sorted: the ground truth outage coverage is checked against.
func outageSpan(outages []Outage, tick int) []int {
	var out []int
	for _, o := range outages {
		if tick >= o.Start && tick < o.End {
			for d := o.From; d < o.To; d++ {
				out = append(out, d)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestInjectorOutageCoverage: outage windows silence exactly their
// device range, and the stream's randomness does not shift around them
// (a device outside every outage sees the same fate with and without
// the outages configured).
func TestInjectorOutageCoverage(t *testing.T) {
	base := InjectorConfig{Seed: 77, DropProb: 0.05, CorruptProb: 0.05}
	withOutage := base
	withOutage.Outages = []Outage{{From: 10, To: 20, Start: 2, End: 5}, {From: 15, To: 25, Start: 4, End: 6}}

	plain, err := NewInjector(base)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(withOutage)
	if err != nil {
		t.Fatal(err)
	}
	rows := injectRows(40, 2)
	for tick := 0; tick < 8; tick++ {
		span := outageSpan(withOutage.Outages, tick)
		inSpan := map[int]bool{}
		for _, d := range span {
			inSpan[d] = true
		}
		got, gotMask := inj.Apply(tick, rows)
		want, wantMask := plain.Apply(tick, rows)
		for dev := range rows {
			if inSpan[dev] {
				if got[dev] != nil || gotMask[dev] {
					t.Fatalf("tick %d device %d: outage did not silence", tick, dev)
				}
				continue
			}
			if (got[dev] == nil) != (want[dev] == nil) || gotMask[dev] != wantMask[dev] {
				t.Fatalf("tick %d device %d: outage shifted the random stream", tick, dev)
			}
		}
	}
	// Spot-check the span union: tick 4 is covered by both outages.
	span := outageSpan(withOutage.Outages, 4)
	if len(span) != 15 || span[0] != 10 || span[len(span)-1] != 24 {
		t.Fatalf("outage span at tick 4 = %v", span)
	}
	if got := outageSpan(withOutage.Outages, 7); len(got) != 0 {
		t.Fatalf("outage span at tick 7 = %v, want empty", got)
	}
	if st := inj.Stats(); st.OutageTicks == 0 {
		t.Fatalf("stats %+v: outage ticks uncounted", st)
	}
}
