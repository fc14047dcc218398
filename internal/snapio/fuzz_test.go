package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestFrameReaderEveryTruncationBoundary cuts a two-frame stream at
// every possible byte length. Invariants: no panic, errors carry the
// frame index and the byte offset the failing frame starts at, a cut
// exactly on a frame boundary is a clean io.EOF, and any other cut is
// io.ErrUnexpectedEOF — never a silent short read.
func TestFrameReaderEveryTruncationBoundary(t *testing.T) {
	t.Parallel()

	const want = 3
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for f := 0; f < 2; f++ {
		if err := w.Write([]float64{0.1, 0.2, 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	frameSize := 4 + 8*want

	for cut := 0; cut <= len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]), want)
		whole := cut / frameSize
		for k := 0; k < whole; k++ {
			if _, err := fr.Next(); err != nil {
				t.Fatalf("cut %d: frame %d should decode: %v", cut, k, err)
			}
		}
		_, err := fr.Next()
		if cut%frameSize == 0 {
			if err != io.EOF {
				t.Fatalf("cut %d on a frame boundary: %v, want bare io.EOF", cut, err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d mid-frame: %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if !bytes.Contains([]byte(err.Error()), []byte("frame ")) {
			t.Fatalf("cut %d: error %q lacks the frame position", cut, err)
		}
		if fr.Frames() != whole || fr.Offset() != int64(whole*frameSize) {
			t.Fatalf("cut %d: position %d/%d after failure, want %d/%d",
				cut, fr.Frames(), fr.Offset(), whole, whole*frameSize)
		}
	}
}

// TestFrameReaderOversizedCount: a corrupt length prefix must be
// rejected by geometry before any allocation proportional to it.
func TestFrameReaderOversizedCount(t *testing.T) {
	t.Parallel()

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], math.MaxUint32)
	fr := NewFrameReader(bytes.NewReader(hdr[:]), 2)
	if _, err := fr.Next(); err == nil {
		t.Fatal("oversized count accepted")
	}
	if cap(fr.vals) != 0 {
		t.Fatalf("oversized count allocated vals cap %d", cap(fr.vals))
	}
}

// FuzzFrameReader feeds arbitrary bytes through the reader. The decoder
// must never panic, never allocate beyond the configured geometry,
// return positioned errors for everything except a clean end of
// stream, and decode exactly the prefix of whole well-formed frames,
// every value bit for bit as the little-endian bytes it was read from.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_ = w.Write([]float64{0.5, 0.25})
	_ = w.Write([]float64{1, 0})
	_ = w.Flush()
	clean := buf.Bytes()

	f.Add(clean)
	f.Add(clean[:len(clean)-3])             // torn body
	f.Add(clean[:5])                        // torn header+1
	f.Add(append([]byte(nil), 0xff, 0xff))  // garbage short header
	f.Add(append(bytes.Clone(clean), 9, 9)) // garbage trailer
	f.Add(func() []byte {                   // oversized count
		var h [4]byte
		binary.LittleEndian.PutUint32(h[:], 1<<30)
		return h[:]
	}())
	f.Add(func() []byte { // NaN payloads, -0 and subnormals
		var odd bytes.Buffer
		w := NewFrameWriter(&odd)
		_ = w.Write([]float64{math.Float64frombits(0x7ff0_0000_0000_0001), math.Copysign(0, -1)})
		_ = w.Write([]float64{math.Float64frombits(0xfff8_dead_beef_0001), math.SmallestNonzeroFloat64})
		_ = w.Write([]float64{math.Float64frombits(0x000f_ffff_ffff_ffff), math.Inf(-1)})
		_ = w.Flush()
		return odd.Bytes()
	}())

	const want = 2
	const frameSize = 4 + 8*want
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), want)
		frames := 0
		for {
			vals, err := fr.Next()
			if err == nil {
				if len(vals) != want {
					t.Fatalf("frame %d: %d values, want %d", frames, len(vals), want)
				}
				body := data[frames*frameSize+4:]
				for i, v := range vals {
					if got, want := math.Float64bits(v), binary.LittleEndian.Uint64(body[8*i:]); got != want {
						t.Fatalf("frame %d value %d: bits %#x, want %#x", frames, i, got, want)
					}
				}
				frames++
				if frames > len(data)/frameSize {
					t.Fatalf("decoded %d frames from %d bytes", frames, len(data))
				}
				continue
			}
			if err == io.EOF && fr.Offset() != int64(len(data)) {
				t.Fatalf("clean EOF with %d of %d bytes consumed", fr.Offset(), len(data))
			}
			if err != io.EOF && !bytes.Contains([]byte(err.Error()), []byte("frame ")) {
				t.Fatalf("unpositioned error %q", err)
			}
			break
		}
		if cap(fr.vals) > want {
			t.Fatalf("value slab outgrew the geometry: cap %d", cap(fr.vals))
		}
		if fr.Frames() != frames || fr.Offset() != int64(frames*frameSize) {
			t.Fatalf("position %d/%d after %d frames", fr.Frames(), fr.Offset(), frames)
		}
	})
}
