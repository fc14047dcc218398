package anomalia

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"

	"anomalia/internal/motiontable"
)

// marshalReflect is the reference encoder of the window record: it fills
// the windowRecord layout, motion table included, and hands it to
// encoding/json. AppendJSON must write exactly its bytes.
func marshalReflect(o *Outcome) ([]byte, error) {
	var t motiontable.Table
	rec := windowRecord{
		Massive:    o.Massive,
		Isolated:   o.Isolated,
		Unresolved: o.Unresolved,
		Dist:       o.Dist,
	}
	if o.Reports != nil {
		rec.Reports = make([]windowReport, 0, len(o.Reports))
	}
	for i := range o.Reports {
		r := &o.Reports[i]
		rec.Reports = append(rec.Reports, windowReport{
			Device:     r.Device,
			Class:      r.Class.String(),
			Rule:       r.Rule,
			MotionRefs: t.Refs(r.DenseMotions),
			Cost:       r.Cost,
		})
	}
	rec.Motions = t.Motions()
	return json.Marshal(rec)
}

// sameAsReflect fails t unless AppendJSON, MarshalJSON and json.Marshal
// all write marshalReflect's bytes for o, and AppendJSON keeps dst's
// prefix.
func sameAsReflect(t *testing.T, o *Outcome) {
	t.Helper()
	want, err := marshalReflect(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
		t.Fatalf("AppendJSON:\n got %s\nwant prefix%s", got, want)
	}
	if got, err := o.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON (%v):\n got %s\nwant %s", err, got, want)
	}
	if got, err := json.Marshal(o); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal (%v):\n got %s\nwant %s", err, got, want)
	}
}

// TestAppendJSONMatchesReflection: the reflection-free writer matches
// the reference encoder on real windows of every decision path, on
// empty and null fields, and on rule strings that need every kind of
// escape encoding/json applies.
func TestAppendJSONMatchesReflection(t *testing.T) {
	t.Parallel()

	prev, cur, abnormal := fleetWindow()
	sPrev, sCur, sAbnormal := sharedFamiliesWindow(t)
	for _, w := range []struct {
		prev, cur [][]float64
		abnormal  []int
		opts      []Option
	}{
		{prev, cur, abnormal, nil},
		{prev, cur, abnormal, []Option{WithDistributed(true)}},
		{sPrev, sCur, sAbnormal, nil},
		{sPrev, sCur, sAbnormal, []Option{WithDistributed(true)}},
	} {
		out, err := Characterize(w.prev, w.cur, w.abnormal, w.opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReflect(t, out)
		sameAsReflect(t, deepCopyOutcome(out))
	}

	var all strings.Builder
	for c := 0; c < 256; c++ {
		all.WriteByte(byte(c))
	}
	rules := []string{
		"", "theorem6", all.String(), "a\u2028b\u2029c", "<script>&</script>",
		"\xff\xfe", "\u00e9\x80\u00fc", string(utf8.RuneError), "\U0001F600\x00\x7f",
	}
	for _, rule := range rules {
		sameAsReflect(t, &Outcome{Reports: []Report{{Device: 3, Class: Massive, Rule: rule}}})
	}
	for _, o := range []*Outcome{
		{},
		{Reports: []Report{}},
		{Reports: []Report{}, Massive: []int{}, Isolated: []int{}, Unresolved: []int{}, Dist: &DistStats{}},
		{Reports: []Report{
			{Device: 0, Class: Massive, DenseMotions: [][]int{{}, nil, {-1, 1 << 40}}},
			{Device: 1, Class: Class(0), DenseMotions: [][]int{nil}},
			{Device: -7, Class: Class(9), Cost: Cost{-1, 2, -3, 1 << 50}},
		}, Unresolved: []int{5}, Dist: &DistStats{Messages: -1, Trajectories: 2, ViewSize: 3}},
	} {
		sameAsReflect(t, o)
	}
}

// FuzzAppendJSON is the differential between AppendJSON and the
// reference encoder over FuzzOutcomeJSON's seeds: whatever decodes as a
// window record, with its first report's rule replaced by an arbitrary
// string, encodes to the same bytes on both.
func FuzzAppendJSON(f *testing.F) {
	for _, seed := range []string{
		goldenFleetRecord,
		goldenFleetDistRecord,
		`{"reports":[{"device":0,"class":"massive","rule":"theorem6","motion_refs":[1,0,1],"cost":{}}],"motions":[[0,1,2,3],[],null,[4,5,6,7]]}`,
		`{"reports":[],"motions":[[1]],"massive":[]}`,
	} {
		f.Add([]byte(seed), "theorem6")
	}
	f.Add([]byte(goldenFleetRecord), "<\u2028\xff\"\\\n>&")
	f.Fuzz(func(t *testing.T, data []byte, rule string) {
		var out Outcome
		if err := json.Unmarshal(data, &out); err != nil {
			return
		}
		if len(out.Reports) > 0 {
			out.Reports[0].Rule = rule
		}
		sameAsReflect(t, &out)
	})
}
