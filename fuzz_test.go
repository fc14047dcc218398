package anomalia

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"anomalia/internal/detect"
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

// genericDetector hides a stock detector's concrete type, so a monitor
// built on it runs per-device detectors in a DeviceBank instead of the
// Threshold bank.
type genericDetector struct{ Detector }

// genericThreshold is the default detector factory behind
// genericDetector.
func genericThreshold(int, int) (Detector, error) {
	d, err := NewThresholdDetector(0.05)
	if err != nil {
		return nil, err
	}
	return genericDetector{d}, nil
}

// Fuzz stream encoding. The first byte configures the monitors: bit 0
// picks d = 1 or 2, bit 1 picks one worker over fuzzSmallN devices or
// four over four full shards. Each tick is then one op byte — bit 0
// selects ObservePartial over Observe, and bits 1-3 all set Reset the
// monitors first — followed, for each driven device, by a kind byte
// (fuzzKind*) and d value bytes (fuzzValue). Undriven devices report
// 0.5 in every service.
const (
	fuzzSmallN  = 6
	fuzzPartial = 1
	fuzzReset   = 0x0e

	fuzzKindNil   = 5
	fuzzKindShort = 6
	fuzzKindWide  = 7

	fuzzNaN     = 240
	fuzzPosInf  = 241
	fuzzNegInf  = 242
	fuzzHigh    = 243 // 1.3, clamped to 1
	fuzzLow     = 244 // -0.2, clamped to 0
	fuzzHealthy = 210 // 0.95
	fuzzDip     = 60  // 0.2
)

// fuzzValue decodes one value byte: below fuzzNaN a value in
// [-0.1, 1.095], so a fuzzed walk also leaves the unit cube.
func fuzzValue(b byte) float64 {
	switch b {
	case fuzzNaN:
		return math.NaN()
	case fuzzPosInf:
		return math.Inf(1)
	case fuzzNegInf:
		return math.Inf(-1)
	case fuzzHigh:
		return 1.3
	case fuzzLow:
		return -0.2
	}
	if b > fuzzLow {
		return 0.95
	}
	return float64(b)/200 - 0.1
}

// fuzzDriven returns the devices the stream drives: both ends of the
// fleet and of its middle, so a sharded fleet has some in every shard.
func fuzzDriven(n int) []int { return []int{0, 1, n/2 - 1, n / 2, n - 2, n - 1} }

// fuzzTick appends one tick over a fuzzSmallN fleet to seed: the op
// byte, then every driven device healthy except fuzzDriven index dev,
// which reports kind and value. A device's other services report
// fuzzHigh.
func fuzzTick(seed []byte, d int, op byte, dev int, kind, value byte) []byte {
	seed = append(seed, op)
	for i := range fuzzSmallN {
		k, v := byte(0), byte(fuzzHealthy)
		if i == dev {
			k, v = kind, value
		}
		seed = append(seed, k, v)
		for range d - 1 {
			seed = append(seed, fuzzHigh)
		}
	}
	return seed
}

// monitorFuzzSeeds encodes, for every monitor configuration, each
// fault row of TestMonitorRejectsNonFinite fed through strict and
// partial ticks long enough to quarantine and re-admit the device,
// around a dip that makes a window abnormal and a Reset; the
// clamp-once stream of TestMonitorClampOncePolicy: a partial fuzzHigh
// report, a lost one, and fuzzHigh again; and the stream of
// TestStrictThenPartialHoldsDevice: two strict ticks, a partial one
// missing a device, the same after a Reset, then a strict tick and the
// missing device again.
func monitorFuzzSeeds() [][]byte {
	type fault struct {
		driven int // index into fuzzDriven
		kind   byte
		value  byte
	}
	faults := []fault{
		{3, 0, fuzzNaN}, {3, 0, fuzzPosInf}, {3, 0, fuzzNegInf},
		{3, fuzzKindNil, fuzzHealthy}, {3, fuzzKindShort, fuzzHealthy},
		{5, 0, fuzzNaN}, {5, fuzzKindNil, fuzzHealthy}, {5, fuzzKindWide, fuzzHealthy},
	}
	var seeds [][]byte
	for cfg := byte(0); cfg < 4; cfg++ {
		d := 1 + int(cfg&1)
		for _, f := range faults {
			seed := []byte{cfg}
			tick := func(op byte, dev int, kind, value byte) { seed = fuzzTick(seed, d, op, dev, kind, value) }
			healthy := func(op byte) { tick(op, -1, 0, 0) }
			healthy(fuzzPartial)
			healthy(0)
			tick(0, f.driven, f.kind, f.value)
			for range 4 {
				tick(fuzzPartial, f.driven, f.kind, f.value)
			}
			tick(fuzzPartial, 2, 0, fuzzDip)
			healthy(fuzzPartial)
			healthy(fuzzPartial)
			tick(0, 4, 0, fuzzLow)
			healthy(fuzzReset)
			tick(fuzzPartial, 2, 0, fuzzDip)
			seeds = append(seeds, seed)
		}
		seed := fuzzTick([]byte{cfg}, d, fuzzPartial, -1, 0, 0)
		seed = fuzzTick(seed, d, fuzzPartial, 0, 0, fuzzHigh)
		seed = fuzzTick(seed, d, fuzzPartial, 0, fuzzKindNil, fuzzHealthy)
		seed = fuzzTick(seed, d, fuzzPartial, 0, 0, fuzzHigh)
		seeds = append(seeds, seed)
		seed = fuzzTick([]byte{cfg}, d, 0, -1, 0, 0)
		seed = fuzzTick(seed, d, 0, 3, 0, fuzzDip)
		seed = fuzzTick(seed, d, fuzzPartial, 3, fuzzKindNil, fuzzHealthy)
		seed = fuzzTick(seed, d, fuzzReset|fuzzPartial, 3, fuzzKindNil, fuzzHealthy)
		seed = fuzzTick(seed, d, 0, -1, 0, 0)
		seed = fuzzTick(seed, d, fuzzPartial, 3, fuzzKindNil, fuzzHealthy)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzMonitorObserve is a differential between the default monitor,
// which runs the Threshold bank, and one whose factory hides the same
// detectors behind genericDetector, which runs the per-device bank. On
// every tick of an arbitrary stream of strict and partial snapshots,
// Resets, malformed rows and out-of-range values, both must return the
// same Outcome and error text, commit the same state and report the
// same clock and health.
func FuzzMonitorObserve(f *testing.F) {
	for _, seed := range monitorFuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 100, 0, 120, 0, 140, 0, 100, 0, 120, 0, 140})
	f.Add([]byte{3, 1, 5, 0, 7, 255, 6, 0, 1, 2, 3, 4, 0, 250})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			t.Skip()
		}
		cfg, raw := raw[0], raw[1:]
		d, workers, n := 1+int(cfg&1), 1, fuzzSmallN
		if cfg&2 != 0 {
			workers, n = 4, 4*2048
		}
		bank, err := NewMonitor(n, d, WithIngestWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		generic, err := NewMonitor(n, d, WithIngestWorkers(workers), WithDetectorFactory(genericThreshold))
		if err != nil {
			t.Fatal(err)
		}
		_, threshold := bank.bank.(*detect.ThresholdBank)
		_, device := generic.bank.(*detect.DeviceBank)
		if !threshold || !device {
			t.Fatal("default factory must run the Threshold bank, the wrapping one the per-device bank")
		}
		undriven := make([]float64, d)
		for i := range undriven {
			undriven[i] = 0.5
		}
		driven := fuzzDriven(n)
		step := 1 + len(driven)*(1+d)
		for tick := 0; len(raw) >= step && tick < 32; tick++ {
			op := raw[0]
			snap := make([][]float64, n)
			for dev := range snap {
				snap[dev] = undriven
			}
			for i, dev := range driven {
				b := raw[1+i*(1+d) : 1+(i+1)*(1+d)]
				row := make([]float64, d, d+1)
				for s := range row {
					row[s] = fuzzValue(b[1+s])
				}
				switch b[0] % 8 {
				case fuzzKindNil:
					row = nil
				case fuzzKindShort:
					row = row[:d-1]
				case fuzzKindWide:
					row = append(row, 0.5)
				}
				snap[dev] = row
			}
			raw = raw[step:]

			if op&fuzzReset == fuzzReset {
				bank.Reset()
				generic.Reset()
			}
			observe := (*Monitor).Observe
			if op&fuzzPartial != 0 {
				observe = (*Monitor).ObservePartial
			}
			got, gotErr := observe(bank, snap)
			want, wantErr := observe(generic, snap)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("tick %d: bank error %v, generic %v", tick, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d: bank outcome\n%+v\ngeneric\n%+v", tick, got, want)
			}
			if !reflect.DeepEqual(bank.prev, generic.prev) {
				t.Fatalf("tick %d: bank and generic committed different states", tick)
			}
			if bank.Time() != generic.Time() {
				t.Fatalf("tick %d: bank clock %d, generic %d", tick, bank.Time(), generic.Time())
			}
			if bs, gs := bank.HealthStats(), generic.HealthStats(); bs != gs {
				t.Fatalf("tick %d: bank health %+v, generic %+v", tick, bs, gs)
			}
			for _, dev := range append(driven, n/4) {
				bh, _ := bank.DeviceHealth(dev)
				gh, _ := generic.DeviceHealth(dev)
				if bh != gh {
					t.Fatalf("tick %d device %d: bank %v, generic %v", tick, dev, bh, gh)
				}
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
