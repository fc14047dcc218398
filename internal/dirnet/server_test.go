package dirnet

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
)

// allocated returns the bytes f allocates, process-wide.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// oneRowWindow is a msgInit frame declaring a population of n with one
// abnormal device, id.
func oneRowWindow(n, id int) []byte {
	return appendWindow(nil, windowMsg{
		seq: 1, r: 0.05, n: n, d: 2,
		ids:  []int{id},
		prev: []float64{0.2, 0.3},
		cur:  []float64{0.4, 0.5},
	})
}

// TestWindowMemoryIgnoresDeclaredPopulation: a ~60-byte frame declaring
// n = 2^32−1 builds its window in memory sized by its one row. A server
// that sized states by n would ask for ~128 GiB here.
func TestWindowMemoryIgnoresDeclaredPopulation(t *testing.T) {
	srv := NewServer()
	frame := oneRowWindow(math.MaxUint32, math.MaxUint32-1)
	var resp []byte
	if got := allocated(func() { resp = srv.respond(nil, frame) }); got >= 1<<20 {
		t.Fatalf("window of one row allocated %d bytes", got)
	}
	if resp[0] != statusOK {
		t.Fatalf("response %#x (%q), want statusOK", resp[0], resp)
	}
	// The held window answers in global ids.
	resp = srv.respond(nil, appendDecide(nil, msgView, 1, core.Config{}, math.MaxUint32-1))
	c := &cursor{b: resp, off: 1}
	c.u32()
	c.u32()
	c.u32()
	view := c.ids(c.count(4))
	if err := c.err(); err != nil || resp[0] != statusOK || len(view) != 1 || view[0] != math.MaxUint32-1 {
		t.Fatalf("view = %v (%v), want [%d]", view, err, math.MaxUint32-1)
	}
}

// TestWindowIdsMustIncrease: unsorted, duplicate and out-of-population
// ids are rejected with statusErr, and the rejected window leaves the
// server without a window.
func TestWindowIdsMustIncrease(t *testing.T) {
	for name, ids := range map[string][]int{
		"unsorted":  {5, 3},
		"duplicate": {3, 3},
		"outside":   {3, 10},
	} {
		t.Run(name, func(t *testing.T) {
			srv := NewServer()
			frame := appendWindow(nil, windowMsg{
				seq: 1, r: 0.05, n: 10, d: 1, ids: ids,
				prev: []float64{0.1, 0.2}, cur: []float64{0.3, 0.4},
			})
			if resp := srv.respond(nil, frame); resp[0] != statusErr {
				t.Fatalf("response %#x (%q), want statusErr", resp[0], resp)
			}
			if srv.Seq() != 0 {
				t.Fatalf("rejected window held at seq %d", srv.Seq())
			}
		})
	}
}

// TestDecisionsIndependentOfPopulation: the same abnormal rows declared
// with n = 10_000 and n = 10_000_000 decide to byte-identical
// msgDecideAll responses, both equal to in-process dist.DecideAll over
// the full-population pair.
func TestDecisionsIndependentOfPopulation(t *testing.T) {
	const n = 10_000
	r := 0.03 * math.Sqrt(1000.0/n)
	cfg := core.Config{R: r, Tau: 3, Exact: true}
	pair, abnormal := clusteredWindow(t, n, 100, 10, r, 3)

	dir, err := dist.NewDirectory(pair, abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	decs, _, err := dist.DecideAll(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	want := appendDecisions([]byte{statusOK}, decs, identity)

	req := appendDecideAll(nil, 1, cfg, 0, len(abnormal))
	for _, declared := range []int{n, 1000 * n} {
		w := windowOf(1, pair, abnormal, r, nil)
		w.n = declared
		srv := NewServer()
		if resp := srv.respond(nil, appendWindow(nil, w)); resp[0] != statusOK {
			t.Fatalf("n=%d: window response %q", declared, resp)
		}
		if got := srv.respond(nil, req); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: msgDecideAll response differs from the in-process decisions (%d vs %d bytes)", declared, len(got), len(want))
		}
	}
}

// FuzzServerRespond sends a fresh Server one window payload, then one
// request payload. Neither may panic, every response starts with a
// known status, and the window's allocation is bounded by its frame
// length, never by the population it declares.
func FuzzServerRespond(f *testing.F) {
	w := windowMsg{
		seq: 42, r: 0.07, n: 1000, d: 3,
		ids:  []int{3, 17, 999},
		prev: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		cur:  []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
	}
	window := appendWindow(nil, w)
	for _, req := range [][]byte{
		appendDecideAll(nil, 42, testCfg, 0, 3),
		appendDecideAll(nil, 41, testCfg, 0, 3),
		appendDecide(nil, msgDecide, 42, testCfg, 17),
		appendDecide(nil, msgDecide, 42, testCfg, 18),
		appendDecide(nil, msgView, 42, core.Config{}, 999),
		window,
		{},
		// The retired inline-motion decide requests.
		{2, 42, 0, 0, 0, 0, 0, 0, 0},
		{3, 42, 0, 0, 0, 0, 0, 0, 0},
	} {
		f.Add(window, req)
	}
	f.Add(oneRowWindow(math.MaxUint32, 7), appendDecideAll(nil, 1, testCfg, 0, 1))
	f.Add(oneRowWindow(1<<28, 0), appendDecide(nil, msgView, 1, core.Config{}, 0))

	const perByte, slack = 64, 1 << 20
	f.Fuzz(func(t *testing.T, window, req []byte) {
		srv := NewServer()
		var resp []byte
		if got := allocated(func() { resp = srv.respond(nil, window) }); got > perByte*uint64(len(window))+slack {
			t.Fatalf("window of %d bytes allocated %d", len(window), got)
		}
		checkStatus(t, resp)
		checkStatus(t, srv.respond(nil, req))
	})
}

// TestRetiredDecideTypesRejected: the decide request types of the
// inline-motion protocol get statusErr, so a client on that protocol
// degrades its window instead of misreading a table-layout response,
// and a server on it answers this protocol's decide requests the same
// way.
func TestRetiredDecideTypesRejected(t *testing.T) {
	srv := NewServer()
	if resp := srv.respond(nil, oneRowWindow(10, 3)); resp[0] != statusOK {
		t.Fatalf("window response %q", resp)
	}
	for _, req := range [][]byte{
		appendDecideAll(nil, 1, testCfg, 0, 1),
		appendDecide(nil, msgDecide, 1, testCfg, 3),
	} {
		if req[0] == 2 || req[0] == 3 {
			t.Fatalf("decide request reuses retired type %d", req[0])
		}
		if resp := srv.respond(nil, req); resp[0] != statusOK {
			t.Fatalf("type %d: response %q", req[0], resp)
		}
		req[0] -= 3 // msgDecideAll → 2, msgDecide → 3
		resp := srv.respond(nil, req)
		if _, err := decodeStatus(resp); !isAppError(err) || !bytes.Contains(resp, []byte("unknown message type")) {
			t.Fatalf("retired type %d: response %q (%v), want an unknown-type statusErr", req[0], resp, err)
		}
	}
}

func checkStatus(t *testing.T, resp []byte) {
	t.Helper()
	if len(resp) == 0 || (resp[0] != statusOK && resp[0] != statusNeedInit && resp[0] != statusErr) {
		t.Fatalf("response %q has no known status", resp)
	}
}
