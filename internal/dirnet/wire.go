package dirnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/motiontable"
	"anomalia/internal/slab"
)

// MaxFrame caps a frame's payload length in both directions (the same
// role snapio's geometry check plays for snapshot frames). 256 MiB
// clears a million-device abnormal window with every service dimension
// in use.
const MaxFrame = 1 << 28

// msgDecideWindow is the one request type (first payload byte): a
// whole abnormal window plus the positions a shard is to decide. Types
// 1-6 were the requests of earlier protocols (a window sent ahead of
// separate decide and view requests, and before that decisions carrying
// their dense motions inline); they are retired, not reused, so a peer
// on any of those protocols gets statusErr instead of a misread
// response.
const msgDecideWindow byte = 7

// Response status bytes. 0x81, an earlier protocol's status, is
// retired, not reused.
const (
	statusOK  byte = 0x80
	statusErr byte = 0x82
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

// windowMsg is the decoded msgDecideWindow request: the core config,
// the shard's positions [from, to) into the window's sorted abnormal
// set, and the window's abnormal trajectories, ids strictly increasing
// and below n. The directory is built at cfg.R.
type windowMsg struct {
	cfg      core.Config
	from, to int
	n, d     int
	ids      []int
	prev     []float64 // m×d, row-major, aligned with ids
	cur      []float64
}

// configBytes is the wire size of a core config: R, Tau, Exact, Budget.
const configBytes = 8 + 4 + 1 + 8

// rangeOffset is the payload offset of a request's from word; to
// follows it.
const rangeOffset = 1 + configBytes

// appendWindow encodes a msgDecideWindow request. ids must be sorted;
// prev and cur are the abnormal devices' rows in id order.
func appendWindow(b []byte, w windowMsg) []byte {
	b = append(b, msgDecideWindow)
	b = appendConfig(b, w.cfg)
	b = appendU32(b, uint32(w.from))
	b = appendU32(b, uint32(w.to))
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

// setRange rewrites the [from, to) words of an encoded request in
// place, so one encoding of a window serves every shard.
func setRange(req []byte, from, to int) {
	binary.LittleEndian.PutUint32(req[rangeOffset:], uint32(from))
	binary.LittleEndian.PutUint32(req[rangeOffset+4:], uint32(to))
}

// decodeWindow decodes a request body (type byte already consumed) into
// w, reusing the arrays of w's ids and rows. Every allocation is bounded
// by the payload length, never by the declared n or d.
func decodeWindow(c *cursor, w *windowMsg) error {
	w.cfg = decodeConfig(c)
	w.from = int(c.u32())
	w.to = int(c.u32())
	w.n = int(c.u32())
	w.d = int(c.u32())
	m := c.count(4)
	w.ids = slab.Of(w.ids, m)
	for i := range w.ids {
		w.ids[i] = int(c.u32())
	}
	if w.d > 0 && m > (len(c.b)-c.off)/(16*w.d) {
		c.bad = true
	}
	w.prev, w.cur = w.prev[:0], w.cur[:0]
	if !c.bad {
		w.prev = slab.Of(w.prev, m*w.d)
		for i := range w.prev {
			w.prev[i] = c.f64()
		}
		w.cur = slab.Of(w.cur, m*w.d)
		for i := range w.cur {
			w.cur[i] = c.f64()
		}
	}
	return c.err()
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

// appendDecisions encodes a decide response body: the motion table,
// then the decisions. The table lists each distinct dense motion once,
// in first-appearance order, mapped through ids once per motion; a
// decision carries its verdict fields, u32 refs into the table in place
// of its motions, and its billed traffic stats. The J/L diagnostic
// split of core.Result is deliberately not carried. ids maps the
// server's window-local device ids to global ones; the map is monotone,
// so sorted motions stay sorted. The motions are interned in t, which
// is left empty.
func appendDecisions(b []byte, t *motiontable.Table, decs []dist.Decision, ids []int) []byte {
	defer t.Reset()
	// Intern every decision's motions first: the table precedes the
	// decisions, and a second Refs call on the same slice is a lookup.
	for i := range decs {
		t.Refs(decs[i].Result.Dense)
	}
	motions := t.Motions()
	b = appendU32(b, uint32(len(motions)))
	for _, mo := range motions {
		b = appendU32(b, uint32(len(mo)))
		for _, id := range mo {
			b = appendU32(b, uint32(ids[id]))
		}
	}
	b = appendU32(b, uint32(len(decs)))
	for i := range decs {
		dec := &decs[i]
		b = appendU32(b, uint32(ids[dec.Result.Device]))
		b = append(b, byte(dec.Result.Class), byte(dec.Result.Rule))
		b = appendU64(b, uint64(dec.Result.Cost.MaximalMotions))
		b = appendU64(b, uint64(dec.Result.Cost.DenseMotions))
		b = appendU64(b, uint64(dec.Result.Cost.NeighborsScanned))
		b = appendU64(b, uint64(dec.Result.Cost.CollectionsTested))
		refs := t.Refs(dec.Result.Dense)
		b = appendU32(b, uint32(len(refs)))
		for _, ref := range refs {
			b = appendU32(b, uint32(ref))
		}
		b = appendU32(b, uint32(dec.Stats.Messages))
		b = appendU32(b, uint32(dec.Stats.Trajectories))
		b = appendU32(b, uint32(dec.Stats.ViewSize))
	}
	return b
}

// minDecisionBytes is the wire size of a decision with no dense
// motion: device, class and rule, four costs, the ref count and three
// stats.
const minDecisionBytes = 4 + 2 + 4*8 + 4 + 3*4

// decodeDecisions decodes a decide response body written by
// appendDecisions into dst: the motion table, then exactly len(dst)
// decisions. The decision count is checked before any decision is
// read, and every allocation is bounded by the body's length. A ref
// outside the table fails the decode. Decisions with equal ref lists
// share one dense slice, and every decision shares the table's
// motions, as the in-process characterizer shares a family's. Nothing
// is checked against the window; that is decodeWindowDecisions' job.
func decodeDecisions(body []byte, dst []dist.Decision) (table [][]int, err error) {
	c := &cursor{b: body}
	if n := c.count(4); n > 0 {
		table = make([][]int, n)
		for i := range table {
			table[i] = c.ids(c.count(4))
		}
	}
	count := c.count(minDecisionBytes)
	if !c.bad && count != len(dst) {
		return nil, fmt.Errorf("dirnet: %d decisions in a response for %d", count, len(dst))
	}
	// families maps a ref list's wire bytes to its dense slice.
	families := map[string][][]int{}
	for i := 0; i < count && !c.bad; i++ {
		dec := &dst[i]
		*dec = dist.Decision{} // dst may be recycled; J and L are not on the wire
		dec.Result.Device = int(c.u32())
		dec.Result.Class = core.Class(c.u8())
		dec.Result.Rule = core.Rule(c.u8())
		dec.Result.Cost.MaximalMotions = int(c.u64())
		dec.Result.Cost.DenseMotions = int(c.u64())
		dec.Result.Cost.NeighborsScanned = int(c.u64())
		dec.Result.Cost.CollectionsTested = int(c.u64())
		dec.Result.Dense = c.family(c.count(4), table, families)
		dec.Stats.Messages = int(c.u32())
		dec.Stats.Trajectories = int(c.u32())
		dec.Stats.ViewSize = int(c.u32())
	}
	if err := c.err(); err != nil {
		return nil, err
	}
	return table, nil
}

// family reads k refs into table and returns the dense motions they
// name, shared with every earlier decision whose refs were the same.
func (c *cursor) family(k int, table [][]int, families map[string][][]int) [][]int {
	if k == 0 || c.bad {
		return nil
	}
	raw := c.b[c.off : c.off+4*k]
	if dense, ok := families[string(raw)]; ok {
		c.off += 4 * k
		return dense
	}
	dense := make([][]int, k)
	for i := range dense {
		ref := c.u32()
		if uint64(ref) >= uint64(len(table)) {
			c.bad = true
			return nil
		}
		dense[i] = table[ref]
	}
	families[string(raw)] = dense
	return dense
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
// body, converting statusErr into a serverError.
func decodeStatus(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("dirnet: empty response")
	}
	body := payload[1:]
	switch payload[0] {
	case statusOK:
		return body, nil
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
