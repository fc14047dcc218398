package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"anomalia"
	"anomalia/internal/snapio"
)

// buildCSVExact renders snapshots with full round-trip precision, so a
// CSV stream and its binary conversion carry bit-identical values.
func buildCSVExact(snapshots [][]float64) string {
	var sb strings.Builder
	for _, row := range snapshots {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestGatewayRejectsNonFinite pins the NaN-bypass fix: v < 0 || v > 1 is
// false for NaN, so the old interval-only check accepted it. Every
// non-finite value must be rejected with an error naming the offending
// device, on both the CSV and the binary path.
func TestGatewayRejectsNonFinite(t *testing.T) {
	t.Parallel()

	for _, cell := range []string{"NaN", "nan", "+Inf", "-Inf", "Infinity"} {
		csvData := "0.5,0.5\n0.5," + cell + "\n"
		var out bytes.Buffer
		err := run([]string{"-devices", "2", "-strict"}, strings.NewReader(csvData), &out, io.Discard)
		if err == nil {
			t.Errorf("CSV cell %q accepted", cell)
			continue
		}
		if !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "device 1") {
			t.Errorf("CSV cell %q: error %q should name the non-finite value and device 1", cell, err)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var frames bytes.Buffer
		w := snapio.NewFrameWriter(&frames)
		if err := w.Write([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := w.Write([]float64{bad, 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"-devices", "2", "-format", "bin", "-strict"}, &frames, &out, io.Discard)
		if err == nil {
			t.Errorf("binary value %v accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("binary value %v: error %q should say non-finite", bad, err)
		}
	}
}

// TestGatewayBinaryMatchesCSV: -convert then -format bin must reproduce
// the CSV run's output byte for byte — same verdicts, same summary.
func TestGatewayBinaryMatchesCSV(t *testing.T) {
	t.Parallel()

	healthy := []float64{0.95, 0.951, 0.949, 0.95, 0.95, 0.95}
	faulty := []float64{0.5, 0.5, 0.51, 0.49, 0.95, 0.2}
	snapshots := [][]float64{healthy, healthy, healthy, faulty, healthy}
	csvData := buildCSVExact(snapshots)

	binPath := t.TempDir() + "/snaps.bin"
	var convOut bytes.Buffer
	if err := run([]string{"-devices", "6", "-convert", binPath},
		strings.NewReader(csvData), &convOut, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(convOut.String(), "converted 5 snapshots") {
		t.Errorf("converter summary: %q", convOut.String())
	}

	for _, extra := range [][]string{nil, {"-json"}, {"-distributed"}} {
		argsCSV := append([]string{"-devices", "6"}, extra...)
		argsBin := append([]string{"-devices", "6", "-format", "bin", "-in", binPath}, extra...)
		var fromCSV, fromBin bytes.Buffer
		if err := run(argsCSV, strings.NewReader(csvData), &fromCSV, io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := run(argsBin, strings.NewReader(""), &fromBin, io.Discard); err != nil {
			t.Fatal(err)
		}
		if fromCSV.String() != fromBin.String() {
			t.Errorf("%v: binary output diverges from CSV:\n%s\nvs\n%s",
				extra, fromBin.String(), fromCSV.String())
		}
		if len(extra) == 0 && !strings.Contains(fromCSV.String(), "massive=[0 1 2 3]") {
			t.Errorf("fixture lost its verdicts:\n%s", fromCSV.String())
		}
	}
}

// TestGatewayWorkersParity: the -workers count must not change output.
func TestGatewayWorkersParity(t *testing.T) {
	t.Parallel()

	healthy := []float64{0.95, 0.95, 0.95, 0.95, 0.95, 0.95}
	faulty := []float64{0.5, 0.5, 0.51, 0.49, 0.95, 0.2}
	csvData := buildCSVExact([][]float64{healthy, healthy, faulty})

	var want string
	for _, w := range []string{"1", "2", "8"} {
		var out bytes.Buffer
		if err := run([]string{"-devices", "6", "-workers", w},
			strings.NewReader(csvData), &out, io.Discard); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		if want == "" {
			want = out.String()
			continue
		}
		if out.String() != want {
			t.Errorf("workers=%s output diverges:\n%s\nvs\n%s", w, out.String(), want)
		}
	}
}

func TestGatewayConvertErrors(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	var out bytes.Buffer
	// The converter validates: garbage CSV must not produce a frame file
	// that the bin path would then trust.
	if err := run([]string{"-devices", "2", "-convert", dir + "/bad.bin"},
		strings.NewReader("0.5,NaN\n"), &out, io.Discard); err == nil {
		t.Error("convert accepted a non-finite value")
	}
	if err := run([]string{"-devices", "2", "-convert", dir + "/bad2.bin"},
		strings.NewReader("0.5,1.5\n"), &out, io.Discard); err == nil {
		t.Error("convert accepted an out-of-range value")
	}
	// -convert is a CSV-to-bin bridge; converting from bin is a config error.
	if err := run([]string{"-devices", "2", "-format", "bin", "-convert", dir + "/x.bin"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("convert from bin input must error")
	}
	// A truncated binary stream must fail loudly, not end cleanly.
	var frames bytes.Buffer
	w := snapio.NewFrameWriter(&frames)
	if err := w.Write([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := frames.Bytes()[:frames.Len()-4]
	if err := run([]string{"-devices", "2", "-format", "bin"},
		bytes.NewReader(cut), &out, io.Discard); err == nil {
		t.Error("truncated binary stream must error")
	}
	if err := run([]string{"-devices", "2", "-format", "qcow2"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("unknown format must error")
	}
}

// TestGatewayDocSync keeps the package usage comment honest: every
// detector in detectorTable and every flag the gateway defines must
// appear in the text above `package main`. This is the regression guard
// for the drift where shewhart existed in code but not in the docs.
func TestGatewayDocSync(t *testing.T) {
	t.Parallel()

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	header, _, found := strings.Cut(string(src), "\npackage main")
	if !found {
		t.Fatal("cannot locate package clause in main.go")
	}
	for _, det := range detectorTable {
		if !strings.Contains(header, det.name) {
			t.Errorf("usage comment omits detector %q", det.name)
		}
	}
	for _, flagName := range []string{
		"-devices", "-services", "-r", "-tau", "-detector", "-in",
		"-format", "-convert", "-workers", "-json", "-distributed",
		"-strict", "-hold", "-readmit", "-maxbad", "-directory",
		"-metrics",
	} {
		if !strings.Contains(header, flagName) {
			t.Errorf("usage comment omits flag %s", flagName)
		}
	}
	// The -json summary record's fields are API: every json tag of the
	// health and dir payloads must be spelled out in the header, so a
	// counter added to either surface cannot ship undocumented.
	for _, typ := range []reflect.Type{
		reflect.TypeOf(anomalia.HealthStats{}),
		reflect.TypeOf(anomalia.DirStats{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				t.Errorf("%s.%s has no json tag", typ.Name(), typ.Field(i).Name)
				continue
			}
			if !strings.Contains(header, tag) {
				t.Errorf("usage comment omits summary field %q (%s.%s)", tag, typ.Name(), typ.Field(i).Name)
			}
		}
	}
}

// TestGatewayThresholdBuildsNoDetectors: -detector threshold, the
// default, selects the Monitor's default detectors, so building the
// gateway's monitor allocates nothing per device. A run over an empty
// stream of 100,000 two-service devices allocates a few dozen times;
// passing the threshold factory built a Device, its detector slice and
// two Threshold detectors per device: four allocations each.
func TestGatewayThresholdBuildsNoDetectors(t *testing.T) {
	args := []string{"-devices", "100000", "-services", "2", "-detector", "threshold"}
	allocs := testing.AllocsPerRun(1, func() {
		if err := run(args, strings.NewReader(""), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("building the gateway's monitor allocated %.0f times, want at most 1000", allocs)
	}
}

// TestGatewaySourcesMendHoles: a faulty tick nils its devices' rows,
// and the next tick restores exactly those. On every tick a faulty
// device's row is nil and every other row is present, carries its
// values and views its slice of the one frame slab, the CSV source's
// own: after a fault, on a clean tick, on a fault on another device
// and, for CSV, after a lost record.
func TestGatewaySourcesMendHoles(t *testing.T) {
	t.Parallel()

	const devices, services, lost = 6, 2, -2
	frame := func(hole int) []float64 {
		flat := make([]float64, devices*services)
		for i := range flat {
			flat[i] = 0.5 + 0.01*float64(i)
		}
		if hole >= 0 {
			flat[hole*services+1] = math.NaN()
		}
		return flat
	}
	for _, tc := range []struct {
		name  string
		holes []int // the faulty device per tick: -1 none, lost the whole tick
		src   func(holes []int) (tickSource, []float64)
	}{
		{"csv", []int{1, -1, 4, lost, -1, 4, -1}, func(holes []int) (tickSource, []float64) {
			var sb strings.Builder
			for _, hole := range holes {
				if hole == lost {
					sb.WriteString("0.5,0.5\n")
					continue
				}
				sb.WriteString(buildCSVExact([][]float64{frame(hole)}))
			}
			src := newCSVSource(strings.NewReader(sb.String()), devices, services, false)
			return src, src.flat
		}},
		{"bin", []int{1, -1, 4, -1, 4, -1}, func(holes []int) (tickSource, []float64) {
			snaps := make([][]float64, len(holes))
			for k, hole := range holes {
				snaps[k] = frame(hole)
			}
			return newBinSource(bytes.NewReader(buildFrames(t, snaps)), devices, services, false), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, slab := tc.src(tc.holes)
			for k, hole := range tc.holes {
				rows, faults, err := src.Next()
				if err != nil {
					t.Fatalf("tick %d: %v", k, err)
				}
				if len(rows) != devices || (hole == -1) != (len(faults) == 0) {
					t.Fatalf("tick %d: %d rows, %d faults", k, len(rows), len(faults))
				}
				if hole == lost {
					for dev, row := range rows {
						if row != nil {
							t.Fatalf("tick %d: device %d has a row on a lost tick", k, dev)
						}
					}
					continue
				}
				if slab == nil {
					slab = unsafe.Slice(&rows[0][0], devices*services)
				}
				want := frame(hole)
				for dev, row := range rows {
					if dev == hole {
						if row != nil {
							t.Fatalf("tick %d: faulty device %d has a row", k, dev)
						}
						continue
					}
					view := slab[dev*services : (dev+1)*services]
					if len(row) != services || cap(row) != services || &row[0] != &view[0] || !slices.Equal(row, want[dev*services:(dev+1)*services]) {
						t.Fatalf("tick %d: device %d row %v does not view its slice of the frame", k, dev, row)
					}
				}
			}
		})
	}
}

// BenchmarkIngest measures the tick decode alone (no monitor): the CSV
// and binary sources over the same 100k-device frame.
func BenchmarkIngest(b *testing.B) {
	const devices, services, ticks = 100_000, 2, 4
	row := make([]float64, devices*services)
	for i := range row {
		row[i] = float64(i%997) / 997
	}
	var csvBuf strings.Builder
	for t := 0; t < ticks; t++ {
		for i, v := range row {
			if i > 0 {
				csvBuf.WriteByte(',')
			}
			csvBuf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		csvBuf.WriteByte('\n')
	}
	csvPayload := csvBuf.String()
	var binBuf bytes.Buffer
	w := snapio.NewFrameWriter(&binBuf)
	for t := 0; t < ticks; t++ {
		if err := w.Write(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	binPayload := binBuf.Bytes()

	b.Run(fmt.Sprintf("csv-%d", devices), func(b *testing.B) {
		b.SetBytes(int64(len(csvPayload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := newCSVSource(strings.NewReader(csvPayload), devices, services, false)
			for t := 0; t < ticks; t++ {
				if _, _, err := src.Next(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("bin-%d", devices), func(b *testing.B) {
		b.SetBytes(int64(len(binPayload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := newBinSource(bytes.NewReader(binPayload), devices, services, false)
			for t := 0; t < ticks; t++ {
				if _, _, err := src.Next(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
