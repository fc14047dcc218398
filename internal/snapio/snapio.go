// Package snapio implements the binary snapshot stream shared by
// cmd/anomalia-gateway (-format bin) and cmd/anomalia-sim (-emit bin):
// one length-prefixed frame of float64 QoS values per discrete time.
//
// Frame layout, everything little-endian:
//
//	uint32          count — number of float64 values in the frame
//	count × uint64  the values as IEEE-754 bits, device-major
//	                (dev0_svc0, dev0_svc1, dev1_svc0, ...)
//
// The format exists because encoding/csv plus strconv dominate a
// million-device tick: a frame body is read straight into the bytes of
// the reader's value slab — one copy, no per-value conversion on a
// little-endian host, an in-place byte swap on a big-endian one — and
// both directions reuse their buffers, so steady-state streaming does
// not allocate per tick. The codec is value-agnostic — range and
// finiteness policy belong to the consumer (the gateway rejects
// non-finite and out-of-[0,1] values the same way it does for CSV
// input).
package snapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unsafe"
)

// bigEndian reports whether the host stores a float64's bytes most
// significant first, the reverse of the wire order.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// FrameReader decodes a stream of frames. It reuses its buffers: the
// slice returned by Next is overwritten by the following Next.
type FrameReader struct {
	r    *bufio.Reader
	want int
	vals []float64
	// off is the byte offset of the frame Next decodes next — the sum
	// of fully decoded frames — and frame its stream index. Both feed
	// the positioned errors the format owes its consumers: a length-
	// prefixed stream cannot resync after framing corruption, so the
	// error that kills it must say where the stream died.
	off   int64
	frame int
}

// NewFrameReader wraps r. want is the expected value count per frame
// (devices × services); a frame of any other geometry is an error,
// which also bounds the allocation a corrupt length prefix could
// otherwise demand.
func NewFrameReader(r io.Reader, want int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16), want: want}
}

// Next returns the next frame's values, or io.EOF at a clean end of
// stream. A frame cut short surfaces io.ErrUnexpectedEOF; every error
// except the clean EOF names the frame's stream index and the byte
// offset of its first byte.
func (fr *FrameReader) Next() ([]float64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("snapio: frame %d at byte %d: header: %w", fr.frame, fr.off, err)
	}
	count := int(binary.LittleEndian.Uint32(hdr[:]))
	if count != fr.want {
		return nil, fmt.Errorf("snapio: frame %d at byte %d: frame has %d values, want %d", fr.frame, fr.off, count, fr.want)
	}
	if cap(fr.vals) < count {
		fr.vals = make([]float64, count)
	}
	vals := fr.vals[:count]
	// The body lands in the slab's own bytes: on a little-endian host
	// they already are the values.
	need := 8 * count
	if _, err := io.ReadFull(fr.r, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), need)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("snapio: frame %d at byte %d: body: %w", fr.frame, fr.off, err)
	}
	if bigEndian {
		swapBytes(vals)
	}
	fr.off += int64(4 + need)
	fr.frame++
	return vals, nil
}

// swapBytes reverses the byte order of every value in place, turning
// little-endian wire bytes read into a big-endian host's slab into the
// values they encode.
func swapBytes(vals []float64) {
	for i, v := range vals {
		vals[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// Offset returns the byte offset past the last fully decoded frame —
// equivalently, the offset at which the next frame starts.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Frames returns the number of frames fully decoded so far.
func (fr *FrameReader) Frames() int { return fr.frame }

// FrameWriter encodes frames onto a buffered writer; call Flush when
// the stream is complete.
type FrameWriter struct {
	w   *bufio.Writer
	buf []byte
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one frame.
func (fw *FrameWriter) Write(vals []float64) error {
	if len(vals) > math.MaxUint32 {
		return fmt.Errorf("snapio: frame of %d values exceeds the format's uint32 count", len(vals))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(vals)))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	need := 8 * len(vals)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	buf := fw.buf[:need]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := fw.w.Write(buf)
	return err
}

// Flush flushes the underlying buffered writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// Rows reslices a device-major flat frame into one row of services
// values per device, reusing rows when it already views flat (the
// common steady-state case: FrameReader hands back the same backing
// array every tick). services must be positive and divide len(flat).
func Rows(flat []float64, rows [][]float64, services int) [][]float64 {
	n := len(flat) / services
	if len(rows) == n && n > 0 && len(rows[0]) == services && &rows[0][0] == &flat[0] {
		return rows
	}
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = flat[i*services : (i+1)*services : (i+1)*services]
	}
	return rows
}
