package anomalia

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"anomalia/internal/scenario"
)

// goldenFleetRecord pins the window record of fleetWindow(): four
// co-moving devices share one dense motion, written once in the
// "motions" table; the lone device has no motion_refs.
const goldenFleetRecord = goldenFleetBody + `}`

// goldenFleetDistRecord is the same window decided WithDistributed: the
// directory traffic comes last.
const goldenFleetDistRecord = goldenFleetBody + `,"dist":{"messages":14,"trajectories":12,"view_size":17}}`

const goldenFleetBody = `{"reports":[` +
	`{"device":0,"class":"massive","rule":"theorem6","motion_refs":[0],"cost":{"maximal_motions":1,"dense_motions":1,"neighbors_scanned":3,"collections_tested":0}},` +
	`{"device":1,"class":"massive","rule":"theorem6","motion_refs":[0],"cost":{"maximal_motions":1,"dense_motions":1,"neighbors_scanned":3,"collections_tested":0}},` +
	`{"device":2,"class":"massive","rule":"theorem6","motion_refs":[0],"cost":{"maximal_motions":1,"dense_motions":1,"neighbors_scanned":3,"collections_tested":0}},` +
	`{"device":3,"class":"massive","rule":"theorem6","motion_refs":[0],"cost":{"maximal_motions":1,"dense_motions":1,"neighbors_scanned":3,"collections_tested":0}},` +
	`{"device":4,"class":"isolated","rule":"theorem5","cost":{"maximal_motions":1,"dense_motions":0,"neighbors_scanned":0,"collections_tested":0}}],` +
	`"massive":[0,1,2,3],"isolated":[4],"motions":[[0,1,2,3]]`

// sharedFamiliesWindow is an all-abnormal window: scenario errors over
// a fleet whose unmoved background is flagged too, so several dense
// families form, overlap, and share motions.
func sharedFamiliesWindow(tb testing.TB) (prev, cur [][]float64, abnormal []int) {
	tb.Helper()
	gen, err := scenario.New(scenario.Config{
		N: 200, D: 2, R: 0.03, Tau: 3, A: 30, G: 0.2,
		Concomitant: true, MaxShift: 0.06, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	step, err := gen.Step()
	if err != nil {
		tb.Fatal(err)
	}
	n := step.Pair.N()
	prev = make([][]float64, n)
	cur = make([][]float64, n)
	abnormal = make([]int, n)
	for j := 0; j < n; j++ {
		prev[j] = step.Pair.Prev.At(j)
		cur[j] = step.Pair.Cur.At(j)
		abnormal[j] = j
	}
	return prev, cur, abnormal
}

// TestOutcomeJSONRoundTrip: a window record decodes back to the Outcome
// that wrote it, dense motions included, on every decision path.
func TestOutcomeJSONRoundTrip(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	sPrev, sCur, sAbnormal := sharedFamiliesWindow(t)
	cases := []struct {
		name           string
		prev, cur      [][]float64
		abnormal       []int
		opts           []Option
		sharedFamilies bool
	}{
		{name: "centralized", prev: prev, cur: cur, abnormal: abnormal},
		{name: "distributed", prev: prev, cur: cur, abnormal: abnormal, opts: []Option{WithDistributed(true)}},
		{name: "all-abnormal", prev: sPrev, cur: sCur, abnormal: sAbnormal, sharedFamilies: true},
		{name: "all-abnormal-distributed", prev: sPrev, cur: sCur, abnormal: sAbnormal, opts: []Option{WithDistributed(true)}, sharedFamilies: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Characterize(tc.prev, tc.cur, tc.abnormal, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			var back Outcome
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, out) {
				t.Fatalf("round trip changed the outcome:\n got %+v\nwant %+v", back, *out)
			}
			if !tc.sharedFamilies {
				return
			}
			var rec struct {
				Motions [][]int `json:"motions"`
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			refs, multi := 0, 0
			for _, rep := range out.Reports {
				refs += len(rep.DenseMotions)
				if len(rep.DenseMotions) > 1 {
					multi++
				}
			}
			if multi == 0 || len(rec.Motions) == 0 || len(rec.Motions)*2 > refs {
				t.Fatalf("window lacks shared, overlapping families: %d table motions for %d refs, %d multi-motion reports",
					len(rec.Motions), refs, multi)
			}
		})
	}
}

// TestOutcomeJSONGolden pins the window record's shape.
func TestOutcomeJSONGolden(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	for _, tc := range []struct {
		opts []Option
		want string
	}{
		{nil, goldenFleetRecord},
		{[]Option{WithDistributed(true)}, goldenFleetDistRecord},
	} {
		out, err := Characterize(prev, cur, abnormal, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("record:\n got %s\nwant %s", data, tc.want)
		}
	}
}

// TestOutcomeJSONContentOnly: an Outcome and a deep copy sharing no
// slices write the same bytes, so the record does not depend on how the
// decision path shared memory.
func TestOutcomeJSONContentOnly(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := sharedFamiliesWindow(t)
	out, err := Characterize(prev, cur, abnormal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	cp := deepCopyOutcome(out)
	if !reflect.DeepEqual(cp, out) {
		t.Fatal("deep copy differs")
	}
	got, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("deep copy encodes differently:\n got %s\nwant %s", got, want)
	}
}

// TestOutcomeJSONPrefixSlices: slices that start at the same element but
// differ in length are different motions and different motion lists.
func TestOutcomeJSONPrefixSlices(t *testing.T) {
	t.Parallel()

	ids := []int{0, 1, 2, 3, 4, 5}
	dense := [][]int{ids[:4], ids[:5], ids}
	out := &Outcome{Reports: []Report{
		{Device: 0, Class: Massive, Rule: "theorem6", DenseMotions: dense[:1]},
		{Device: 1, Class: Massive, Rule: "theorem6", DenseMotions: dense[:2]},
		{Device: 2, Class: Massive, Rule: "theorem6", DenseMotions: dense},
	}}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, out) {
		t.Fatalf("round trip changed the outcome:\n got %+v\nwant %+v\n%s", back, *out, data)
	}
}

func deepCopyOutcome(out *Outcome) *Outcome {
	ints := func(s []int) []int {
		if s == nil {
			return nil
		}
		return append(make([]int, 0, len(s)), s...)
	}
	cp := &Outcome{
		Massive:    ints(out.Massive),
		Isolated:   ints(out.Isolated),
		Unresolved: ints(out.Unresolved),
	}
	if out.Dist != nil {
		d := *out.Dist
		cp.Dist = &d
	}
	for _, rep := range out.Reports {
		var dense [][]int
		for _, m := range rep.DenseMotions {
			dense = append(dense, ints(m))
		}
		rep.DenseMotions = dense
		cp.Reports = append(cp.Reports, rep)
	}
	return cp
}

// TestOutcomeJSONBadRefs: a motion reference the table cannot satisfy,
// or a report without a class, is an input error, never a panic.
func TestOutcomeJSONBadRefs(t *testing.T) {
	t.Parallel()

	for name, rec := range map[string]string{
		"out of range": `{"reports":[{"device":0,"class":"massive","rule":"theorem6","motion_refs":[1],"cost":{}}],"motions":[[0,1,2,3]]}`,
		"negative":     `{"reports":[{"device":0,"class":"massive","rule":"theorem6","motion_refs":[-1],"cost":{}}],"motions":[[0,1,2,3]]}`,
		"no table":     `{"reports":[{"device":0,"class":"massive","rule":"theorem6","motion_refs":[0],"cost":{}}]}`,
		"no class":     `{"reports":[{"device":0,"rule":"theorem5","cost":{}}]}`,
	} {
		var out Outcome
		if err := json.Unmarshal([]byte(rec), &out); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
}

func TestClassTextMarshalling(t *testing.T) {
	t.Parallel()

	for _, c := range []Class{Isolated, Massive, Unresolved} {
		data, err := c.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Class
		if err := back.UnmarshalText(data); err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Errorf("round trip %v -> %v", c, back)
		}
	}
	var c Class
	if err := c.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unknown class text must error")
	}
}

// stormOutcome is a storm-sized window's Outcome: six 500-device
// massive families, each sharing one dense motion, then 20 isolated
// gateways — about 0.3 MB of window record.
func stormOutcome() Outcome {
	const families, size, lone = 6, 500, 20
	var o Outcome
	for f := range families {
		motion := make([]int, size)
		for i := range motion {
			motion[i] = f*30_000 + i
		}
		dense := [][]int{motion}
		for _, dev := range motion {
			o.Reports = append(o.Reports, Report{Device: dev, Class: Massive, Rule: "theorem6", DenseMotions: dense,
				Cost: Cost{MaximalMotions: 1, DenseMotions: 1, NeighborsScanned: size - 1}})
			o.Massive = append(o.Massive, dev)
		}
	}
	for i := range lone {
		dev := 190_000 + 500*i
		o.Reports = append(o.Reports, Report{Device: dev, Class: Isolated, Rule: "theorem5", Cost: Cost{MaximalMotions: 1}})
		o.Isolated = append(o.Isolated, dev)
	}
	return o
}

// TestMarshalJSONPoolMiss: a MarshalJSON that finds the record pool
// empty, as it is after two collections, starts its buffer at the
// longest record written so far, so a storm-sized record costs its
// scratch, one buffer, the motion table's maps and slices and the
// returned copy: 27 allocations. A buffer grown from empty through
// appends takes 59.
func TestMarshalJSONPoolMiss(t *testing.T) {
	o := stormOutcome()
	want, err := o.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		if got, err := o.MarshalJSON(); err != nil || len(got) != len(want) {
			t.Fatalf("MarshalJSON wrote %d bytes (%v), want %d", len(got), err, len(want))
		}
	})
	if allocs > 40 {
		t.Fatalf("MarshalJSON on an emptied pool: %v allocations, want at most 40", allocs)
	}
}
