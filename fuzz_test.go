package anomalia

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCharacterize drives arbitrary snapshot bytes through the public
// API: whatever the input, Characterize must either return a structurally
// sound outcome or a clean error — never panic, never emit overlapping
// sets.
func FuzzCharacterize(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50}, []byte{60, 70, 80, 90, 100}, uint8(3), uint8(2))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 255, 255}, uint8(1), uint8(1))
	f.Add([]byte{7}, []byte{9}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, prevRaw, curRaw []byte, abCount, tauRaw uint8) {
		n := len(prevRaw)
		if len(curRaw) < n {
			n = len(curRaw)
		}
		if n == 0 || n > 40 {
			t.Skip()
		}
		prev := make([][]float64, n)
		cur := make([][]float64, n)
		for i := 0; i < n; i++ {
			prev[i] = []float64{float64(prevRaw[i]) / 255}
			cur[i] = []float64{float64(curRaw[i]) / 255}
		}
		abnormal := make([]int, 0, int(abCount)%n+1)
		for i := 0; i <= int(abCount)%n; i++ {
			abnormal = append(abnormal, i)
		}
		tau := int(tauRaw)%5 + 1

		out, err := Characterize(prev, cur, abnormal, WithTau(tau))
		if err != nil {
			return // clean rejection is fine
		}
		if len(out.Reports) != len(abnormal) {
			t.Fatalf("%d reports for %d abnormal devices", len(out.Reports), len(abnormal))
		}
		if len(out.Massive)+len(out.Isolated)+len(out.Unresolved) != len(abnormal) {
			t.Fatal("sets do not partition the abnormal input")
		}
		for _, rep := range out.Reports {
			if rep.Class != Isolated && rep.Class != Massive && rep.Class != Unresolved {
				t.Fatalf("invalid class %v", rep.Class)
			}
		}
	})
}

// FuzzMonitorObserve feeds arbitrary sample streams to the monitor:
// malformed rows must error cleanly, well-formed ones must never panic.
func FuzzMonitorObserve(f *testing.F) {
	f.Add([]byte{100, 120, 140, 100, 120, 140})
	f.Add([]byte{0, 255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const devices = 3
		if len(raw) < devices {
			t.Skip()
		}
		m, err := NewMonitor(devices, 1)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+devices <= len(raw) && off < 10*devices; off += devices {
			snapshot := make([][]float64, devices)
			for i := 0; i < devices; i++ {
				snapshot[i] = []float64{float64(raw[off+i]) / 255}
			}
			if _, err := m.Observe(snapshot); err != nil {
				t.Fatalf("well-formed snapshot rejected: %v", err)
			}
		}
	})
}

// FuzzOutcomeJSON decodes arbitrary bytes as a window record: decoding
// must never panic, and whatever decodes must re-encode to a byte-level
// fixed point of Marshal → Unmarshal → Marshal.
func FuzzOutcomeJSON(f *testing.F) {
	f.Add([]byte(goldenFleetRecord))
	f.Add([]byte(goldenFleetDistRecord))
	f.Add([]byte(`{"reports":[{"device":0,"class":"massive","rule":"theorem6","motion_refs":[1,0,1],"cost":{}}],"motions":[[0,1,2,3],[],null,[4,5,6,7]]}`))
	f.Add([]byte(`{"reports":[],"motions":[[1]],"massive":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Outcome
		if err := json.Unmarshal(data, &out); err != nil {
			return
		}
		first, err := json.Marshal(&out)
		if err != nil {
			t.Fatalf("decoded outcome does not encode: %v", err)
		}
		var back Outcome
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point:\n%s\n%s", first, second)
		}
	})
}
