package dirnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/motion"
)

// decisionWindow is a window whose decisions carry dense motions: two
// 6-device clusters, both faulty, over 120 devices.
func decisionWindow(tb testing.TB) (*motion.Pair, []int, core.Config) {
	cfg := core.Config{R: 0.01, Tau: 3, Exact: true}
	pair, abnormal := clusteredWindow(tb, 120, 6, 2, cfg.R, 5)
	return pair, abnormal, cfg
}

// realResponse is a server's whole response payload, status byte
// included, for positions [from, to) of the window.
func realResponse(tb testing.TB, pair *motion.Pair, abnormal []int, cfg core.Config, from, to int) []byte {
	tb.Helper()
	w := windowOf(pair, abnormal, cfg, nil)
	w.from, w.to = from, to
	resp := NewServer().respond(nil, appendWindow(nil, w))
	if resp[0] != statusOK {
		tb.Fatalf("decide rejected: %q", resp)
	}
	return resp
}

// rawDecisions decodes a decide response payload without the
// client's checks. Each decision gets its own copy of its motions, so
// an edit to one slot stays in that slot.
func rawDecisions(tb testing.TB, resp []byte) []dist.Decision {
	tb.Helper()
	decs := make([]dist.Decision, len(splitResponse(tb, resp).decs))
	if _, err := decodeDecisions(resp[1:], decs); err != nil {
		tb.Fatal(err)
	}
	for i := range decs {
		dense := decs[i].Result.Dense
		decs[i].Result.Dense = nil
		for _, mo := range dense {
			decs[i].Result.Dense = append(decs[i].Result.Dense, slices.Clone(mo))
		}
	}
	return decs
}

// encodeResponse encodes decisions over global ids as a DecideAll
// response payload.
func encodeResponse(decs []dist.Decision) []byte {
	top := 0
	for _, dec := range decs {
		top = max(top, dec.Result.Device)
		for _, mo := range dec.Result.Dense {
			top = max(top, slices.Max(mo))
		}
	}
	identity := make([]int, top+1)
	for i := range identity {
		identity[i] = i
	}
	return appendDecisions([]byte{statusOK}, decs, identity)
}

// wireResponse is a decide response payload in its wire parts: the
// motion table, the decisions' fixed fields, and each decision's refs
// into the table. It lets a test build a response no server writes.
type wireResponse struct {
	table [][]int
	decs  []dist.Decision // Dense unset
	refs  [][]uint32
}

// splitResponse parses a well-formed decide response payload into
// its wire parts.
func splitResponse(tb testing.TB, resp []byte) wireResponse {
	tb.Helper()
	var w wireResponse
	c := &cursor{b: resp, off: 1}
	w.table = make([][]int, c.count(4))
	for i := range w.table {
		w.table[i] = c.ids(c.count(4))
	}
	w.decs = make([]dist.Decision, c.count(minDecisionBytes))
	w.refs = make([][]uint32, len(w.decs))
	for i := range w.decs {
		dec := &w.decs[i]
		dec.Result.Device = int(c.u32())
		dec.Result.Class = core.Class(c.u8())
		dec.Result.Rule = core.Rule(c.u8())
		dec.Result.Cost = core.Cost{MaximalMotions: int(c.u64()), DenseMotions: int(c.u64()), NeighborsScanned: int(c.u64()), CollectionsTested: int(c.u64())}
		w.refs[i] = make([]uint32, c.count(4))
		for k := range w.refs[i] {
			w.refs[i][k] = c.u32()
		}
		dec.Stats = dist.Stats{Messages: int(c.u32()), Trajectories: int(c.u32()), ViewSize: int(c.u32())}
	}
	if err := c.err(); err != nil {
		tb.Fatal(err)
	}
	return w
}

// encode writes the parts back as a response payload, verbatim.
func (w wireResponse) encode() []byte {
	b := appendU32([]byte{statusOK}, uint32(len(w.table)))
	for _, mo := range w.table {
		b = appendU32(b, uint32(len(mo)))
		for _, id := range mo {
			b = appendU32(b, uint32(id))
		}
	}
	b = appendU32(b, uint32(len(w.decs)))
	for i, dec := range w.decs {
		b = appendU32(b, uint32(dec.Result.Device))
		b = append(b, byte(dec.Result.Class), byte(dec.Result.Rule))
		b = appendU64(b, uint64(dec.Result.Cost.MaximalMotions))
		b = appendU64(b, uint64(dec.Result.Cost.DenseMotions))
		b = appendU64(b, uint64(dec.Result.Cost.NeighborsScanned))
		b = appendU64(b, uint64(dec.Result.Cost.CollectionsTested))
		b = appendU32(b, uint32(len(w.refs[i])))
		for _, ref := range w.refs[i] {
			b = appendU32(b, ref)
		}
		b = appendU32(b, uint32(dec.Stats.Messages))
		b = appendU32(b, uint32(dec.Stats.Trajectories))
		b = appendU32(b, uint32(dec.Stats.ViewSize))
	}
	return b
}

// decodeResponse runs the client's decode path over a whole response
// payload.
func decodeResponse(resp []byte, abnormal []int, from, to int) ([]dist.Decision, error) {
	body, err := decodeStatus(resp)
	if err != nil {
		return nil, err
	}
	decs := make([]dist.Decision, to-from)
	if err := decodeWindowDecisions(body, abnormal, from, decs); err != nil {
		return nil, err
	}
	return decs, nil
}

// tampers are the ways a buggy or hostile shard can corrupt an
// otherwise well-formed response; each edits the decision in slot i,
// which holds a dense motion of at least two devices.
var tampers = []struct {
	name string
	edit func(decs []dist.Decision, i int, abnormal []int) []dist.Decision
}{
	{"another device's decision", func(decs []dist.Decision, i int, abnormal []int) []dist.Decision {
		decs[i].Result.Device = abnormal[(i+1)%len(abnormal)]
		return decs
	}},
	{"class 0", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		decs[i].Result.Class = core.ClassUnknown
		return decs
	}},
	{"class past the last", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		decs[i].Result.Class = core.ClassUnresolved + 1
		return decs
	}},
	{"rule past the last", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		decs[i].Result.Rule = core.RuleTheorem7 + 1
		return decs
	}},
	{"unsorted motion", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		slices.Reverse(decs[i].Result.Dense[0])
		return decs
	}},
	{"repeated motion member", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		mo := decs[i].Result.Dense[0]
		mo[1] = mo[0]
		return decs
	}},
	{"motion member outside the window", func(decs []dist.Decision, i int, abnormal []int) []dist.Decision {
		mo := decs[i].Result.Dense[0]
		decs[i].Result.Dense[0] = append(mo, abnormal[len(abnormal)-1]+1)
		return decs
	}},
	{"motion without the device", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		mo := decs[i].Result.Dense[0]
		decs[i].Result.Dense[0] = slices.DeleteFunc(mo, func(id int) bool { return id == decs[i].Result.Device })
		return decs
	}},
	{"every device claims one family's motions", func(decs []dist.Decision, i int, _ []int) []dist.Decision {
		// From the second family on, each claim repeats its predecessor's
		// motions, so only the device check can catch it.
		for k := range decs {
			decs[k].Result.Dense = slices.Clone(decs[i].Result.Dense)
		}
		return decs
	}},
	{"one decision short", func(decs []dist.Decision, _ int, _ []int) []dist.Decision {
		return decs[:len(decs)-1]
	}},
}

// massiveSlot returns the first slot whose decision has a dense motion.
func massiveSlot(tb testing.TB, decs []dist.Decision) int {
	tb.Helper()
	for i, dec := range decs {
		if len(dec.Result.Dense) > 0 && len(dec.Result.Dense[0]) >= 2 {
			return i
		}
	}
	tb.Fatal("fixture: no decision has a dense motion")
	return 0
}

// tableTampers corrupt a response's motion table or its refs, which no
// edit of the decoded decisions can express; each edits the decision in
// slot i, whose first ref names a motion of at least two devices.
var tableTampers = []struct {
	name string
	edit func(w *wireResponse, i int, abnormal []int)
}{
	{"ref outside the table", func(w *wireResponse, i int, _ []int) {
		w.refs[i][0] = uint32(len(w.table))
	}},
	{"ref past any table", func(w *wireResponse, i int, _ []int) {
		w.refs[i][0] = math.MaxUint32
	}},
	{"unsorted table motion", func(w *wireResponse, i int, _ []int) {
		slices.Reverse(w.table[w.refs[i][0]])
	}},
	{"table motion outside the window", func(w *wireResponse, i int, abnormal []int) {
		mo := &w.table[w.refs[i][0]]
		*mo = append(*mo, abnormal[len(abnormal)-1]+1)
	}},
	{"unreferenced table motion outside the window", func(w *wireResponse, _ int, abnormal []int) {
		w.table = append(w.table, []int{abnormal[len(abnormal)-1] + 1})
	}},
	{"referenced motion without the device", func(w *wireResponse, i int, _ []int) {
		// A well-formed motion of the window, but not the device's.
		mo := slices.DeleteFunc(slices.Clone(w.table[w.refs[i][0]]), func(id int) bool { return id == w.decs[i].Result.Device })
		w.table = append(w.table, mo)
		w.refs[i][0] = uint32(len(w.table) - 1)
	}},
}

// TestClientRejectsMalformedDecisions: the client's decode path accepts
// a real response, re-encoded or not, and rejects every tampered copy,
// whether the tamper edits a decision or the motion table; a table
// count larger than the payload is rejected before it is allocated.
func TestClientRejectsMalformedDecisions(t *testing.T) {
	pair, abnormal, cfg := decisionWindow(t)
	m := len(abnormal)
	for _, r := range [][2]int{{0, m}, {m / 3, m}} {
		from, to := r[0], r[1]
		resp := realResponse(t, pair, abnormal, cfg, from, to)
		for _, payload := range [][]byte{resp, encodeResponse(rawDecisions(t, resp)), splitResponse(t, resp).encode()} {
			if _, err := decodeResponse(payload, abnormal, from, to); err != nil {
				t.Fatalf("range [%d, %d): real response rejected: %v", from, to, err)
			}
		}
		for _, tm := range tampers {
			decs := rawDecisions(t, resp)
			bad := encodeResponse(tm.edit(decs, massiveSlot(t, decs), abnormal))
			if got, err := decodeResponse(bad, abnormal, from, to); err == nil {
				t.Errorf("range [%d, %d): %s accepted: %+v", from, to, tm.name, got)
			}
		}
		slot := massiveSlot(t, rawDecisions(t, resp))
		for _, tm := range tableTampers {
			w := splitResponse(t, resp)
			tm.edit(&w, slot, abnormal)
			if got, err := decodeResponse(w.encode(), abnormal, from, to); err == nil {
				t.Errorf("range [%d, %d): %s accepted: %+v", from, to, tm.name, got)
			}
		}
		huge := slices.Clone(resp)
		binary.LittleEndian.PutUint32(huge[1:], 1<<30)
		var err error
		if got := allocated(func() { _, err = decodeResponse(huge, abnormal, from, to) }); err == nil || got > 1<<20 {
			t.Errorf("range [%d, %d): table count 2^30 in %d bytes: err %v, allocated %d", from, to, len(huge), err, got)
		}
	}
}

// TestResponseSharesMotions: a response lists each distinct motion
// once, and the client hands every decision of one family the same
// dense slice over the table's motions, as the in-process
// characterizer does.
func TestResponseSharesMotions(t *testing.T) {
	pair, abnormal, cfg := decisionWindow(t)
	m := len(abnormal)
	resp := realResponse(t, pair, abnormal, cfg, 0, m)
	w := splitResponse(t, resp)
	refs, distinct := 0, map[string]bool{}
	for _, r := range w.refs {
		refs += len(r)
	}
	for _, mo := range w.table {
		key := fmt.Sprint(mo)
		if distinct[key] {
			t.Fatalf("motion %v listed twice", mo)
		}
		distinct[key] = true
	}
	if len(w.table) == 0 || refs <= len(w.table) {
		t.Fatalf("fixture: %d refs to %d motions, want motions shared", refs, len(w.table))
	}
	decs, err := decodeResponse(resp, abnormal, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string][][]int{}
	for _, dec := range decs {
		if len(dec.Result.Dense) == 0 {
			continue
		}
		key := fmt.Sprint(dec.Result.Dense)
		if prev, ok := families[key]; ok && &prev[0] != &dec.Result.Dense[0] {
			t.Fatalf("device %d: equal motions %v in a second slice", dec.Result.Device, key)
		}
		families[key] = dec.Result.Dense
	}
	if len(families) >= len(decs) {
		t.Fatalf("fixture: %d families for %d decisions", len(families), len(decs))
	}
}

// TestHostileShardDegradesWindow: a shard that tampers with its
// decisions fails the window over to the centralized fallback
// (ErrUnavailable) and is charged a breaker failure, exactly like a
// shard whose transport failed.
func TestHostileShardDegradesWindow(t *testing.T) {
	pair, abnormal, cfg := decisionWindow(t)
	resp := realResponse(t, pair, abnormal, cfg, 0, len(abnormal))
	for _, tm := range tampers {
		decs := rawDecisions(t, resp)
		bad := encodeResponse(tm.edit(decs, massiveSlot(t, decs), abnormal))
		// The shard answers the one request a single-shard client sends
		// with the tampered copy.
		srv := NewServer()
		dial := func(string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go func() {
				defer c2.Close()
				var buf []byte
				for {
					req, _, err := readFrame(c2, buf)
					if err != nil {
						return
					}
					buf = req
					out := srv.respond(nil, req)
					if req[0] == msgDecideWindow {
						out = bad
					}
					if _, err := writeFrame(c2, out); err != nil {
						return
					}
				}
			}()
			return c1, nil
		}
		c, err := NewClient(Config{Addrs: []string{"hostile"}, Dial: dial, BreakerFails: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.DecideWindow(pair, abnormal, cfg); !errors.Is(err, ErrUnavailable) {
			t.Errorf("%s: window error %v, want ErrUnavailable", tm.name, err)
		}
		if st := c.Stats(); st.BreakerOpens != 1 {
			t.Errorf("%s: %d breaker opens, want 1", tm.name, st.BreakerOpens)
		}
		c.Close()
	}
}

// FuzzClientDecode feeds arbitrary decide response payloads, and
// ranges of a fixed window, through the client's decode path. It must
// not panic, must allocate in proportion to the payload, and must
// return either an error or exactly one decision per position, each
// passing the client's checks. The seeds are real responses for one
// and two devices, in the table layout, and a two-device one with a
// ref outside its table: the fuzzer minimizes every input that finds
// new coverage, which takes time quadratic in the input's length.
func FuzzClientDecode(f *testing.F) {
	pair, abnormal, cfg := decisionWindow(f)
	m := len(abnormal)
	for _, r := range [][2]int{{0, 1}, {0, 2}, {m - 1, m}} {
		resp := realResponse(f, pair, abnormal, cfg, r[0], r[1])
		f.Add(resp, uint16(r[0]), uint16(r[1]))
	}
	w := splitResponse(f, realResponse(f, pair, abnormal, cfg, 0, 2))
	w.refs[1] = append(w.refs[1], uint32(len(w.table)))
	f.Add(w.encode(), uint16(0), uint16(2))
	f.Add([]byte{statusErr, 3, 0, 0, 0, 'b', 'a', 'd'}, uint16(0), uint16(1))
	f.Add([]byte{statusOK, 0xff, 0xff, 0xff, 0xff}, uint16(0), uint16(m))
	f.Add([]byte{statusOK, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, uint16(0), uint16(m))

	const perByte, slack = 64, 1 << 20
	f.Fuzz(func(t *testing.T, resp []byte, from, to uint16) {
		lo, hi := int(from)%(m+1), int(to)%(m+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		var decs []dist.Decision
		var err error
		if got := allocated(func() { decs, err = decodeResponse(resp, abnormal, lo, hi) }); got > perByte*uint64(len(resp))+slack {
			t.Fatalf("response of %d bytes allocated %d", len(resp), got)
		}
		if err != nil {
			return
		}
		if len(decs) != hi-lo {
			t.Fatalf("%d decisions for range [%d, %d)", len(decs), lo, hi)
		}
		for i, dec := range decs {
			if err := checkDecision(dec.Result, abnormal[lo+i]); err != nil {
				t.Fatalf("accepted decision fails its check: %v", err)
			}
			for _, mo := range dec.Result.Dense {
				if err := checkMotion(mo, abnormal); err != nil {
					t.Fatalf("accepted decision of device %d: %v", dec.Result.Device, err)
				}
			}
		}
	})
}
