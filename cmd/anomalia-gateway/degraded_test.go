package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"anomalia/internal/snapio"
)

// buildFrames encodes snapshots as a snapio binary stream.
func buildFrames(t *testing.T, snapshots [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapio.NewFrameWriter(&buf)
	for _, row := range snapshots {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatewayTolerantCSVRecovery: by default a malformed CSV cell costs
// its device the tick, not the stream — the run completes, the
// diagnostic on standard error names the snapshot, device and line, and
// the end-of-stream summary accounts for the degradation.
func TestGatewayTolerantCSVRecovery(t *testing.T) {
	t.Parallel()

	csvData := "0.9,0.9,0.9,0.9\n0.9,abc,0.9,0.9\n0.9,0.9,0.9,0.9\n0.9,0.9,0.9,0.9\n"
	var out, diag bytes.Buffer
	if err := run([]string{"-devices", "4"}, strings.NewReader(csvData), &out, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 4 snapshots") {
		t.Errorf("stream did not complete:\n%s", out.String())
	}
	got := diag.String()
	for _, want := range []string{"snapshot 1", "device 1", "line 2", "degraded stream: 1 fault(s) across 1 snapshot(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, got)
		}
	}
}

// TestGatewayTolerantCSVRecordLoss: a record-level CSV fault (wrong
// field count) loses the whole tick but the stream resyncs on the next
// line.
func TestGatewayTolerantCSVRecordLoss(t *testing.T) {
	t.Parallel()

	csvData := "0.9,0.9\n0.5\n0.9,0.9\n"
	var out, diag bytes.Buffer
	if err := run([]string{"-devices", "2"}, strings.NewReader(csvData), &out, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 3 snapshots") {
		t.Errorf("stream did not complete:\n%s", out.String())
	}
	got := diag.String()
	for _, want := range []string{"tick lost", "line 2"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, got)
		}
	}
}

// TestGatewayTolerantBinaryRecovery: a non-finite value in a binary
// frame costs its device the tick; the diagnostic names the frame index
// and the byte offset of the offending value.
func TestGatewayTolerantBinaryRecovery(t *testing.T) {
	t.Parallel()

	frames := buildFrames(t, [][]float64{
		{0.9, 0.9},
		{math.NaN(), 0.9},
		{0.9, 0.9},
	})
	var out, diag bytes.Buffer
	if err := run([]string{"-devices", "2", "-format", "bin"},
		bytes.NewReader(frames), &out, &diag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 3 snapshots") {
		t.Errorf("stream did not complete:\n%s", out.String())
	}
	got := diag.String()
	// Frames are 4+16 = 20 bytes here; frame 1 starts at byte 20 and
	// device 0's first value sits past the 4-byte header, at byte 24.
	// "2 live" pins the row-table repair after a degraded tick: the
	// reused row slice must not ship the previous tick's nil hole, or
	// the clean tick after the fault would read as another fault and
	// the device would never return to live.
	for _, want := range []string{"snapshot 1", "device 0", "frame 1 at byte 24", "non-finite", "2 live"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, got)
		}
	}
}

// TestGatewayStrictPositionedErrors pins the position information in
// fail-fast errors, per format: CSV names line and column, binary names
// frame index and byte offset.
func TestGatewayStrictPositionedErrors(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-devices", "2", "-strict"},
		strings.NewReader("0.9,0.9\n0.9,abc\n"), &out, io.Discard)
	if err == nil {
		t.Fatal("strict CSV run accepted a malformed cell")
	}
	for _, want := range []string{"line 2", "column 5", "device 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CSV error %q missing %q", err, want)
		}
	}

	frames := buildFrames(t, [][]float64{{0.9, 0.9}, {0.9, 1.5}})
	err = run([]string{"-devices", "2", "-format", "bin", "-strict"},
		bytes.NewReader(frames), &out, io.Discard)
	if err == nil {
		t.Fatal("strict binary run accepted an out-of-range value")
	}
	for _, want := range []string{"frame 1 at byte 20", "device 1", "outside [0,1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("binary error %q missing %q", err, want)
		}
	}

	// Framing damage is fatal even in tolerant mode, with the same
	// position: a length-prefixed stream cannot resync.
	cut := frames[:len(frames)-4]
	err = run([]string{"-devices", "2", "-format", "bin"},
		bytes.NewReader(cut), &out, io.Discard)
	if err == nil {
		t.Fatal("tolerant run accepted a truncated frame")
	}
	if !strings.Contains(err.Error(), "frame 1 at byte 20") {
		t.Errorf("truncation error %q missing frame position", err)
	}
}

// TestGatewayValueFaultPositionedAtCell: with more than one service, a
// value fault must be positioned at the offending service's cell, not
// the device's first — strict CSV names that cell's column, and the
// tolerant binary diagnostic names that value's byte offset.
func TestGatewayValueFaultPositionedAtCell(t *testing.T) {
	t.Parallel()

	// Device 1's service 1 is the fourth field: columns 1, 5, 9, 13.
	var out bytes.Buffer
	err := run([]string{"-devices", "2", "-services", "2", "-strict"},
		strings.NewReader("0.9,0.9,0.9,0.9\n0.9,0.9,0.9,1.5\n"), &out, io.Discard)
	if err == nil {
		t.Fatal("strict CSV run accepted an out-of-range value")
	}
	for _, want := range []string{"line 2", "column 13", "device 1", "service 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CSV error %q missing %q", err, want)
		}
	}

	// Binary: frames are 4+32 = 36 bytes; frame 1 starts at byte 36 and
	// device 1's service-1 value sits past the header and three values,
	// at byte 36+4+24 = 64.
	frames := buildFrames(t, [][]float64{
		{0.9, 0.9, 0.9, 0.9},
		{0.9, 0.9, 0.9, math.NaN()},
	})
	var diag bytes.Buffer
	if err := run([]string{"-devices", "2", "-services", "2", "-format", "bin"},
		bytes.NewReader(frames), &out, &diag); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"device 1", "frame 1 at byte 64", "non-finite"} {
		if !strings.Contains(diag.String(), want) {
			t.Errorf("binary diagnostic missing %q:\n%s", want, diag.String())
		}
	}
}

// TestGatewayBackstop: a source that stops producing usable reports
// entirely must terminate the run after -maxbad consecutive fully-lost
// snapshots; 0 disables the backstop.
func TestGatewayBackstop(t *testing.T) {
	t.Parallel()

	wedged := strings.Repeat("x\n", 20)
	var out bytes.Buffer
	err := run([]string{"-devices", "2", "-maxbad", "3"},
		strings.NewReader(wedged), &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "consecutive") {
		t.Errorf("backstop did not trip: %v", err)
	}

	out.Reset()
	if err := run([]string{"-devices", "2", "-maxbad", "0"},
		strings.NewReader(wedged), &out, io.Discard); err != nil {
		t.Fatalf("-maxbad 0 must disable the backstop: %v", err)
	}
	if !strings.Contains(out.String(), "processed 20 snapshots") {
		t.Errorf("disabled backstop did not drain the stream:\n%s", out.String())
	}

	// A recovering source resets the counter: two lost ticks, one good
	// one, two lost ticks never accumulate to three.
	recovering := "x\nx\n0.9,0.9\nx\nx\n0.9,0.9\n"
	out.Reset()
	if err := run([]string{"-devices", "2", "-maxbad", "3"},
		strings.NewReader(recovering), &out, io.Discard); err != nil {
		t.Fatalf("interleaved good ticks must reset the backstop: %v", err)
	}
}

// TestGatewayHealthFlags: -hold/-readmit reach the monitor's health
// machine — with -hold 0 a single faulty tick quarantines the device,
// and the clean ticks after it re-admit it, all visible in the summary.
func TestGatewayHealthFlags(t *testing.T) {
	t.Parallel()

	csvData := "0.9,0.9\n0.9,abc\n0.9,0.9\n0.9,0.9\n"
	var out, diag bytes.Buffer
	if err := run([]string{"-devices", "2", "-hold", "0", "-readmit", "2"},
		strings.NewReader(csvData), &out, &diag); err != nil {
		t.Fatal(err)
	}
	got := diag.String()
	for _, want := range []string{"1 quarantine(s)", "1 readmission(s)", "2 live"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

// TestGatewayFaultLineBeyondDetail pins the exact diagnostic line of a
// tick with more faults than maxFaultDetail, per source: the first four
// are spelled out with their positions, the rest are counted.
func TestGatewayFaultLineBeyondDetail(t *testing.T) {
	t.Parallel()

	csvData := "0.9,0.9,0.9,0.9,0.9,0.9\nx,1.5,NaN,y,-2,0.9\n"
	var diag bytes.Buffer
	if err := run([]string{"-devices", "6"}, strings.NewReader(csvData), io.Discard, &diag); err != nil {
		t.Fatal(err)
	}
	want := `snapshot 1: 5 fault(s): [device 0, line 2: service 0: strconv.ParseFloat: parsing "x": invalid syntax]` +
		` [device 3, line 2: service 0: strconv.ParseFloat: parsing "y": invalid syntax]` +
		` [device 1, line 2: service 0: QoS 1.5 outside [0,1]]` +
		` [device 2, line 2: service 0: non-finite QoS NaN] ... and 1 more` + "\n"
	if got, _, _ := strings.Cut(diag.String(), "degraded stream"); got != want {
		t.Errorf("CSV fault line:\n got %q\nwant %q", got, want)
	}

	// Frames are 4+48 = 52 bytes; frame 1's device d sits at byte
	// 52+4+8d.
	inf := math.Inf(1)
	frames := buildFrames(t, [][]float64{
		{0.9, 0.9, 0.9, 0.9, 0.9, 0.9},
		{math.NaN(), 1.5, inf, 0.9, -2, 7},
	})
	diag.Reset()
	if err := run([]string{"-devices", "6", "-format", "bin"}, bytes.NewReader(frames), io.Discard, &diag); err != nil {
		t.Fatal(err)
	}
	want = `snapshot 1: 5 fault(s): [device 0, frame 1 at byte 56: service 0: non-finite QoS NaN]` +
		` [device 1, frame 1 at byte 64: service 0: QoS 1.5 outside [0,1]]` +
		` [device 2, frame 1 at byte 72: service 0: non-finite QoS +Inf]` +
		` [device 4, frame 1 at byte 88: service 0: QoS -2 outside [0,1]] ... and 1 more` + "\n"
	if got, _, _ := strings.Cut(diag.String(), "degraded stream"); got != want {
		t.Errorf("binary fault line:\n got %q\nwant %q", got, want)
	}
}
