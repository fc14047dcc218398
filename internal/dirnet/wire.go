package dirnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"anomalia/internal/core"
	"anomalia/internal/dist"
)

// MaxFrame caps a frame's payload length in both directions (the same
// role snapio's geometry check plays for snapshot frames). 256 MiB
// clears a million-device abnormal window with every service dimension
// in use.
const MaxFrame = 1 << 28

// Request message types (first payload byte).
const (
	msgInit byte = iota + 1
	msgDecideAll
	msgDecide
	msgView
)

// Response status bytes.
const (
	statusOK byte = iota + 0x80
	statusNeedInit
	statusErr
)

// writeFrame sends one length-prefixed frame and returns the bytes put
// on the wire.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxFrame {
		return 0, fmt.Errorf("dirnet: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return 4 + len(payload), nil
}

// readFrame reads one frame into buf and returns the payload plus the
// bytes taken off the wire. A buffer with room for the declared length
// takes the payload in one read; a shorter one grows geometrically from
// 64 KiB as the payload arrives, never past the declared length, so a
// peer that declares MaxFrame and sends nothing costs 64 KiB.
func readFrame(r io.Reader, buf []byte) ([]byte, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return buf, 0, fmt.Errorf("dirnet: frame of %d bytes exceeds MaxFrame", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), 64<<10), n-len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, 0, err
		}
	}
	return buf, 4 + n, nil
}

// Append-style encoders, little-endian like snapio.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// cursor is the decode side: sequential reads with one sticky error,
// checked once at the end of a message.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u8() byte {
	if c.bad || c.off+1 > len(c.b) {
		c.bad = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.bad || c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.bad || c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// count reads a u32 element count and refuses one that could not fit
// in the remaining payload at width bytes per element — the cursor's
// allocation bound.
func (c *cursor) count(width int) int {
	n := int(c.u32())
	if c.bad || n < 0 || n*width > len(c.b)-c.off {
		c.bad = true
		return 0
	}
	return n
}

func (c *cursor) ids(n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(c.u32())
	}
	return out
}

func (c *cursor) err() error {
	if c.bad {
		return fmt.Errorf("dirnet: truncated or malformed message at byte %d of %d", c.off, len(c.b))
	}
	if c.off != len(c.b) {
		return fmt.Errorf("dirnet: %d trailing bytes after message", len(c.b)-c.off)
	}
	return nil
}

// windowMsg is the decoded body of msgInit: one observation window's
// abnormal trajectories, ids strictly increasing and below n.
type windowMsg struct {
	seq  uint64
	r    float64
	n, d int
	ids  []int
	prev []float64 // m×d, row-major, aligned with ids
	cur  []float64
}

// appendWindow encodes a msgInit message. ids must be sorted; prev and
// cur are the abnormal devices' rows in id order.
func appendWindow(b []byte, w windowMsg) []byte {
	b = append(b, msgInit)
	b = appendU64(b, w.seq)
	b = appendF64(b, w.r)
	b = appendU32(b, uint32(w.n))
	b = appendU32(b, uint32(w.d))
	b = appendU32(b, uint32(len(w.ids)))
	for _, id := range w.ids {
		b = appendU32(b, uint32(id))
	}
	for _, v := range w.prev {
		b = appendF64(b, v)
	}
	for _, v := range w.cur {
		b = appendF64(b, v)
	}
	return b
}

// decodeWindow decodes a window message body (type byte already
// consumed). Every allocation is bounded by the payload length, never
// by the declared n or d.
func decodeWindow(c *cursor) (windowMsg, error) {
	var w windowMsg
	w.seq = c.u64()
	w.r = c.f64()
	w.n = int(c.u32())
	w.d = int(c.u32())
	m := c.count(4)
	w.ids = c.ids(m)
	if w.d > 0 && m > (len(c.b)-c.off)/(16*w.d) {
		c.bad = true
	}
	if !c.bad {
		w.prev = make([]float64, m*w.d)
		for i := range w.prev {
			w.prev[i] = c.f64()
		}
		w.cur = make([]float64, m*w.d)
		for i := range w.cur {
			w.cur[i] = c.f64()
		}
	}
	return w, c.err()
}

// decideMsg is the decoded body of msgDecideAll / msgDecide.
type decideMsg struct {
	seq      uint64
	cfg      core.Config
	from, to int // msgDecideAll: positions into the sorted abnormal set
	device   int // msgDecide / msgView: device id
}

func appendConfig(b []byte, cfg core.Config) []byte {
	b = appendF64(b, cfg.R)
	b = appendU32(b, uint32(cfg.Tau))
	exact := byte(0)
	if cfg.Exact {
		exact = 1
	}
	b = append(b, exact)
	return appendU64(b, uint64(cfg.Budget))
}

func decodeConfig(c *cursor) core.Config {
	return core.Config{
		R:      c.f64(),
		Tau:    int(c.u32()),
		Exact:  c.u8() == 1,
		Budget: int(c.u64()),
	}
}

func appendDecideAll(b []byte, seq uint64, cfg core.Config, from, to int) []byte {
	b = append(b, msgDecideAll)
	b = appendU64(b, seq)
	b = appendConfig(b, cfg)
	b = appendU32(b, uint32(from))
	return appendU32(b, uint32(to))
}

func appendDecide(b []byte, typ byte, seq uint64, cfg core.Config, device int) []byte {
	b = append(b, typ)
	b = appendU64(b, seq)
	if typ == msgDecide {
		b = appendConfig(b, cfg)
	}
	return appendU32(b, uint32(device))
}

// appendDecision encodes one decision: the verdict fields an Outcome
// is built from plus the billed traffic stats. The J/L diagnostic
// split of core.Result is deliberately not carried. ids maps the
// server's window-local device ids to global ones; the map is
// monotone, so sorted motions stay sorted.
func appendDecision(b []byte, dec dist.Decision, ids []int) []byte {
	b = appendU32(b, uint32(ids[dec.Result.Device]))
	b = append(b, byte(dec.Result.Class), byte(dec.Result.Rule))
	b = appendU64(b, uint64(dec.Result.Cost.MaximalMotions))
	b = appendU64(b, uint64(dec.Result.Cost.DenseMotions))
	b = appendU64(b, uint64(dec.Result.Cost.NeighborsScanned))
	b = appendU64(b, uint64(dec.Result.Cost.CollectionsTested))
	b = appendU32(b, uint32(len(dec.Result.Dense)))
	for _, motion := range dec.Result.Dense {
		b = appendU32(b, uint32(len(motion)))
		for _, id := range motion {
			b = appendU32(b, uint32(ids[id]))
		}
	}
	b = appendU32(b, uint32(dec.Stats.Messages))
	b = appendU32(b, uint32(dec.Stats.Trajectories))
	return appendU32(b, uint32(dec.Stats.ViewSize))
}

// minDecisionBytes is the wire size of a decision with no dense
// motion: device, class and rule, four costs, the motion count and
// three stats.
const minDecisionBytes = 4 + 2 + 4*8 + 4 + 3*4

func decodeDecision(c *cursor) dist.Decision {
	var dec dist.Decision
	dec.Result.Device = int(c.u32())
	dec.Result.Class = core.Class(c.u8())
	dec.Result.Rule = core.Rule(c.u8())
	dec.Result.Cost.MaximalMotions = int(c.u64())
	dec.Result.Cost.DenseMotions = int(c.u64())
	dec.Result.Cost.NeighborsScanned = int(c.u64())
	dec.Result.Cost.CollectionsTested = int(c.u64())
	if k := c.count(4); k > 0 {
		dec.Result.Dense = make([][]int, k)
		for i := range dec.Result.Dense {
			dec.Result.Dense[i] = c.ids(c.count(4))
		}
	}
	dec.Stats.Messages = int(c.u32())
	dec.Stats.Trajectories = int(c.u32())
	dec.Stats.ViewSize = int(c.u32())
	return dec
}

// serverError is a decoded statusErr body: a deterministic application
// rejection from the server, as opposed to a transport fault — it is
// never retried and never charged to a breaker.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "dirnet: server: " + e.msg }

// appendErr encodes a statusErr response.
func appendErr(b []byte, err error) []byte {
	msg := err.Error()
	b = append(b, statusErr)
	b = appendU32(b, uint32(len(msg)))
	return append(b, msg...)
}

// decodeStatus splits a response payload into its status byte and
// body, converting statusNeedInit and statusErr into errors.
func decodeStatus(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("dirnet: empty response")
	}
	body := payload[1:]
	switch payload[0] {
	case statusOK:
		return body, nil
	case statusNeedInit:
		return nil, errNeedInit
	case statusErr:
		c := &cursor{b: body}
		n := c.count(1)
		var msg string
		if !c.bad {
			msg = string(c.b[c.off : c.off+n])
			c.off += n
		}
		if err := c.err(); err != nil {
			return nil, err
		}
		return nil, &serverError{msg: msg}
	default:
		return nil, fmt.Errorf("dirnet: unknown response status %#x", payload[0])
	}
}
