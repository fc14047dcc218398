package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()

	frames := [][]float64{
		{0, 0.25, 0.5, 1},
		{0.1, 0.2, 0.3, 0.4},
		{math.SmallestNonzeroFloat64, 1 - 1e-16, 0.123456789012345, 0.999999},
	}
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for _, f := range frames {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewFrameReader(&buf, 4)
	for i, want := range frames {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d values, want %d", i, len(got), len(want))
		}
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("frame %d value %d = %v, want %v (bit-exact)", i, c, got[c], want[c])
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("end of stream error = %v, want io.EOF", err)
	}
}

// Non-finite values must survive the codec unchanged: rejecting them is
// the gateway's job, and it can only do that if it sees them.
func TestFrameCarriesNonFinite(t *testing.T) {
	t.Parallel()

	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.Write([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewFrameReader(&buf, 3).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0]) || !math.IsInf(got[1], 1) || !math.IsInf(got[2], -1) {
		t.Errorf("non-finite values mangled: %v", got)
	}
}

func TestFrameReaderReusesBuffer(t *testing.T) {
	t.Parallel()

	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for i := 0; i < 2; i++ {
		if err := w.Write([]float64{0.1, 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewFrameReader(&buf, 2)
	a, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("Next allocated a fresh slice in steady state")
	}
}

func TestFrameGeometryRejected(t *testing.T) {
	t.Parallel()

	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.Write([]float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrameReader(&buf, 2).Next(); err == nil {
		t.Error("3-value frame accepted by a reader expecting 2")
	}
}

func TestFrameTruncation(t *testing.T) {
	t.Parallel()

	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.Write([]float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut inside the body: unexpected EOF, not a clean end.
	r := NewFrameReader(bytes.NewReader(full[:len(full)-3]), 2)
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body truncation error = %v, want ErrUnexpectedEOF", err)
	}
	// Cut inside the header of a second frame.
	r = NewFrameReader(bytes.NewReader(append(append([]byte(nil), full...), full[:2]...)), 2)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("header truncation error = %v, want ErrUnexpectedEOF", err)
	}
}

func TestRows(t *testing.T) {
	t.Parallel()

	flat := []float64{1, 2, 3, 4, 5, 6}
	rows := Rows(flat, nil, 2)
	if len(rows) != 3 || rows[1][0] != 3 || rows[2][1] != 6 {
		t.Fatalf("Rows = %v", rows)
	}
	// Same backing array: no work, same slice header.
	again := Rows(flat, rows, 2)
	if &again[0] != &rows[0] {
		t.Error("Rows re-allocated for an already-wired flat slice")
	}
	// A row must not be able to append into its neighbour.
	r0 := append(rows[0], 99)
	if flat[2] != 3 {
		t.Errorf("row append clobbered the next device: flat = %v", flat)
	}
	_ = r0
	// New backing array: rewires in place.
	flat2 := []float64{7, 8, 9, 10, 11, 12}
	rows2 := Rows(flat2, rows, 2)
	if &rows2[0][0] != &flat2[0] || rows2[2][1] != 12 {
		t.Errorf("rewired rows = %v", rows2)
	}
}

// TestSwapBytesBigEndianView decodes a known frame the way a big-endian
// host does: its slab views the little-endian body bytes most
// significant first, and swapBytes must turn every value back into the
// one written, bit for bit.
func TestSwapBytesBigEndianView(t *testing.T) {
	t.Parallel()

	want := []float64{0.25, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Inf(1), 1 - 1e-16}
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[4:]
	vals := make([]float64, len(want))
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(body[8*i:]))
	}
	swapBytes(vals)
	for i := range want {
		if got, w := math.Float64bits(vals[i]), math.Float64bits(want[i]); got != w {
			t.Errorf("value %d: bits %#x, want %#x", i, got, w)
		}
	}
}
