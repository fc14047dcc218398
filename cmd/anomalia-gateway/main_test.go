package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"anomalia"
)

// buildCSV renders snapshots (devices x services, device-major) as CSV.
func buildCSV(snapshots [][]float64) string {
	var sb strings.Builder
	for _, row := range snapshots {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprintf("%.3f", v)
		}
		sb.WriteString(strings.Join(cells, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestGatewayEndToEnd(t *testing.T) {
	t.Parallel()

	// 6 devices, 1 service. Three healthy snapshots, then devices 0-3
	// drop together while device 5 drops alone.
	healthy := []float64{0.95, 0.95, 0.95, 0.95, 0.95, 0.95}
	faulty := []float64{0.50, 0.50, 0.51, 0.49, 0.95, 0.20}
	csvData := buildCSV([][]float64{healthy, healthy, healthy, faulty})

	var out bytes.Buffer
	err := run([]string{"-devices", "6"}, strings.NewReader(csvData), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "massive=[0 1 2 3]") {
		t.Errorf("output missing massive verdict:\n%s", got)
	}
	if !strings.Contains(got, "isolated=[5]") {
		t.Errorf("output missing isolated verdict:\n%s", got)
	}
	if !strings.Contains(got, "processed 4 snapshots") {
		t.Errorf("output missing summary:\n%s", got)
	}
}

func TestGatewayDistributedMode(t *testing.T) {
	t.Parallel()

	// Same fleet as TestGatewayEndToEnd: the directory-routed path must
	// reach identical verdicts and additionally report its traffic.
	healthy := []float64{0.95, 0.95, 0.95, 0.95, 0.95, 0.95}
	faulty := []float64{0.50, 0.50, 0.51, 0.49, 0.95, 0.20}
	csvData := buildCSV([][]float64{healthy, healthy, healthy, faulty})

	var out bytes.Buffer
	err := run([]string{"-devices", "6", "-distributed"}, strings.NewReader(csvData), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "massive=[0 1 2 3]") {
		t.Errorf("output missing massive verdict:\n%s", got)
	}
	if !strings.Contains(got, "isolated=[5]") {
		t.Errorf("output missing isolated verdict:\n%s", got)
	}
	if !strings.Contains(got, "dist_msgs=") || !strings.Contains(got, "dist_trajs=") {
		t.Errorf("distributed mode must report directory traffic:\n%s", got)
	}
}

func TestGatewayJSONOutput(t *testing.T) {
	t.Parallel()

	healthy := []float64{0.95, 0.95, 0.95, 0.95, 0.95, 0.95}
	faulty := []float64{0.50, 0.50, 0.51, 0.49, 0.95, 0.20}
	csvData := buildCSV([][]float64{healthy, healthy, faulty})

	var out bytes.Buffer
	if err := run([]string{"-devices", "6", "-json"}, strings.NewReader(csvData), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `"t":2`) || !strings.Contains(got, `"class":"massive"`) {
		t.Errorf("JSON output unexpected:\n%s", got)
	}
	if strings.Contains(got, "processed") {
		t.Error("JSON mode must not emit the text summary")
	}
}

// TestEmitJSONMatchesEncoder: a window line is the bytes json.Encoder
// writes for {"t":...,"outcome":...}, also when the reused buffer held
// a longer line before.
func TestEmitJSONMatchesEncoder(t *testing.T) {
	t.Parallel()

	motion := []int{0, 1, 2, 3}
	outcomes := []*anomalia.Outcome{
		{
			Reports: []anomalia.Report{
				{Device: 0, Class: anomalia.Massive, Rule: "theorem6", DenseMotions: [][]int{motion}},
				{Device: 1, Class: anomalia.Massive, Rule: "theorem6", DenseMotions: [][]int{motion}},
				{Device: 4, Class: anomalia.Isolated, Rule: "<\u2028\xff&>\"\n"},
			},
			Massive:  []int{0, 1},
			Isolated: []int{4},
			Dist:     &anomalia.DistStats{Messages: 3, Trajectories: 2, ViewSize: 1},
		},
		{Reports: []anomalia.Report{}},
		{},
	}
	var buf []byte
	for i, o := range outcomes {
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(struct {
			Time    int               `json:"t"`
			Outcome *anomalia.Outcome `json:"outcome"`
		}{1000 * i, o})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if buf, err = emitJSON(&got, buf, 1000*i, o); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("window %d:\n got %q\nwant %q", i, got.String(), want.String())
		}
	}
}

func TestGatewayQuietStream(t *testing.T) {
	t.Parallel()

	healthy := []float64{0.9, 0.9, 0.9}
	csvData := buildCSV([][]float64{healthy, healthy, healthy})
	var out bytes.Buffer
	if err := run([]string{"-devices", "3"}, strings.NewReader(csvData), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "t=") {
		t.Errorf("quiet stream produced verdicts:\n%s", out.String())
	}
}

func TestGatewayDetectorSelection(t *testing.T) {
	t.Parallel()

	// Iterate the table itself so a detector added there is exercised
	// here without this list needing to know about it.
	for _, det := range detectorTable {
		healthy := []float64{0.9, 0.9}
		csvData := buildCSV([][]float64{healthy, healthy})
		var out bytes.Buffer
		if err := run([]string{"-devices", "2", "-detector", det.name},
			strings.NewReader(csvData), &out, io.Discard); err != nil {
			t.Errorf("detector %s: %v", det.name, err)
		}
	}
}

func TestGatewayErrors(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("missing -devices must error")
	}
	if err := run([]string{"-devices", "2", "-detector", "magic"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("unknown detector must error")
	}
	if err := run([]string{"-devices", "2", "-strict"},
		strings.NewReader("0.5,0.5,0.5\n"), &out, io.Discard); err == nil {
		t.Error("wrong column count must error under -strict")
	}
	if err := run([]string{"-devices", "2", "-strict"},
		strings.NewReader("0.5,abc\n"), &out, io.Discard); err == nil {
		t.Error("non-numeric cell must error under -strict")
	}
	if err := run([]string{"-devices", "2", "-strict"},
		strings.NewReader("0.5,1.5\n"), &out, io.Discard); err == nil {
		t.Error("out-of-range QoS must error under -strict")
	}
	if err := run([]string{"-devices", "2", "-readmit", "0"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("-readmit 0 must be rejected")
	}
	if err := run([]string{"-devices", "2", "-hold", "-1"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("negative -hold must be rejected")
	}
	if err := run([]string{"-devices", "2", "-in", "/nonexistent.csv"},
		strings.NewReader(""), &out, io.Discard); err == nil {
		t.Error("missing input file must error")
	}
}

func TestGatewayReadsFile(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	path := dir + "/snaps.csv"
	healthy := []float64{0.9, 0.9}
	if err := writeFile(path, buildCSV([][]float64{healthy, healthy})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-devices", "2", "-in", path}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 2 snapshots") {
		t.Errorf("file input not processed:\n%s", out.String())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
