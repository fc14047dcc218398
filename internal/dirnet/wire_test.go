package dirnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestReadFrameBoundedAlloc: a length prefix declaring MaxFrame and
// followed by nothing fails with io.ErrUnexpectedEOF having allocated
// under 1 MiB — the buffer grows with the bytes that arrive, not with
// the length a peer claims. Not parallel: TotalAlloc is process-wide.
func TestReadFrameBoundedAlloc(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("bare MaxFrame prefix: error %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("bare MaxFrame prefix allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestReadFrameRoundTrip: a frame several growth steps long reads back
// byte for byte whether the buffer has to grow or already has room, and
// whether the payload arrives whole or a byte at a time; a frame cut
// short fails with io.ErrUnexpectedEOF.
func TestReadFrameRoundTrip(t *testing.T) {
	t.Parallel()

	payload := make([]byte, 5<<16+3)
	rand.New(rand.NewSource(1)).Read(payload)
	var wire bytes.Buffer
	if _, err := writeFrame(&wire, payload); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    func() io.Reader
		buf  []byte
	}{
		{"grown", func() io.Reader { return bytes.NewReader(wire.Bytes()) }, nil},
		{"grown from a short buffer", func() io.Reader { return bytes.NewReader(wire.Bytes()) }, make([]byte, 10)},
		{"grown byte by byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(wire.Bytes())) }, nil},
		{"presized", func() io.Reader { return bytes.NewReader(wire.Bytes()) }, make([]byte, 0, len(payload))},
	} {
		got, n, err := readFrame(tc.r(), tc.buf)
		if err != nil || n != wire.Len() || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes, err %v, payload equal %v", tc.name, n, err, bytes.Equal(got, payload))
		}
		if tc.buf != nil && cap(tc.buf) >= len(payload) && &got[0] != &tc.buf[:1][0] {
			t.Fatalf("%s: a buffer with room was replaced", tc.name)
		}
	}
	cut := wire.Bytes()[:wire.Len()-1]
	if _, _, err := readFrame(bytes.NewReader(cut), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: error %v, want io.ErrUnexpectedEOF", err)
	}
}
