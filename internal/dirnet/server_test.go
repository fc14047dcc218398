package dirnet

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
	"anomalia/internal/motiontable"
)

// allocated returns the bytes f allocates, process-wide.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// oneRowWindow is a request declaring a population of n with one
// abnormal device, id, and asking for its decision.
func oneRowWindow(n, id int) []byte {
	return appendWindow(nil, windowMsg{
		cfg: testCfg, from: 0, to: 1,
		n: n, d: 2,
		ids:  []int{id},
		prev: []float64{0.2, 0.3},
		cur:  []float64{0.4, 0.5},
	})
}

// TestWindowMemoryIgnoresDeclaredPopulation: a ~70-byte request
// declaring n = 2^32−1 builds and decides its window in memory sized
// by its one row. A server that sized states by n would ask for
// ~128 GiB here.
func TestWindowMemoryIgnoresDeclaredPopulation(t *testing.T) {
	frame := oneRowWindow(math.MaxUint32, math.MaxUint32-1)
	var resp []byte
	if got := allocated(func() { resp = new(session).respond(nil, frame) }); got >= 1<<20 {
		t.Fatalf("window of one row allocated %d bytes", got)
	}
	if resp[0] != statusOK {
		t.Fatalf("response %#x (%q), want statusOK", resp[0], resp)
	}
	// The decision names the device by its global id.
	var dec [1]dist.Decision
	if _, err := decodeDecisions(resp[1:], dec[:]); err != nil || dec[0].Result.Device != math.MaxUint32-1 {
		t.Fatalf("decision for device %d (%v), want %d", dec[0].Result.Device, err, math.MaxUint32-1)
	}
}

// TestWindowIdsMustIncrease: unsorted, duplicate and out-of-population
// ids are rejected with statusErr.
func TestWindowIdsMustIncrease(t *testing.T) {
	for name, ids := range map[string][]int{
		"unsorted":  {5, 3},
		"duplicate": {3, 3},
		"outside":   {3, 10},
	} {
		t.Run(name, func(t *testing.T) {
			frame := appendWindow(nil, windowMsg{
				cfg: testCfg, from: 0, to: 2,
				n: 10, d: 1, ids: ids,
				prev: []float64{0.1, 0.2}, cur: []float64{0.3, 0.4},
			})
			if resp := new(session).respond(nil, frame); resp[0] != statusErr {
				t.Fatalf("response %#x (%q), want statusErr", resp[0], resp)
			}
		})
	}
}

// TestDecisionsIndependentOfPopulation: the same abnormal rows declared
// with n = 10_000 and n = 10_000_000 decide to byte-identical
// responses, both equal to in-process dist.DecideAll over the
// full-population pair.
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
	want := appendDecisions([]byte{statusOK}, new(motiontable.Table), decs, identity)

	for _, declared := range []int{n, 1000 * n} {
		w := windowOf(pair, abnormal, cfg, nil)
		w.n = declared
		w.to = len(abnormal)
		if got := new(session).respond(nil, appendWindow(nil, w)); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: response differs from the in-process decisions (%d vs %d bytes)", declared, len(got), len(want))
		}
	}
}

// FuzzServerRespond sends a connection's session one request payload.
// It may not panic, and the response starts with a known status. The
// same request is answered again by a session that a larger window
// left dirty — the clustered seed window, whose directory, decide
// memory and motion table are longer than a fuzz window needs — and
// then once more by that session; both answers are byte-identical to
// the fresh session's. Building the window allocates in proportion to
// the frame, never to the population it declares: the same request
// with an empty range builds the window and decides nothing. The seeds
// are a valid request, one whose range words are cut off, one with
// from > to, one with to > m, each retired request type, an empty
// payload, one-row windows declaring huge populations, and a window of
// eight 10-device clusters, whole and cut mid-cluster.
func FuzzServerRespond(f *testing.F) {
	valid := appendWindow(nil, windowMsg{
		cfg: testCfg, from: 0, to: 3,
		n: 1000, d: 3,
		ids:  []int{3, 17, 999},
		prev: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		cur:  []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
	})
	withRange := func(from, to int) []byte {
		req := slices.Clone(valid)
		setRange(req, from, to)
		return req
	}
	f.Add(valid)
	f.Add(valid[:rangeOffset+6])
	f.Add(withRange(2, 1))
	f.Add(withRange(0, 4))
	for typ := byte(1); typ < msgDecideWindow; typ++ {
		req := slices.Clone(valid)
		req[0] = typ
		f.Add(req)
	}
	f.Add([]byte{})
	f.Add(oneRowWindow(math.MaxUint32, 7))
	f.Add(oneRowWindow(1<<28, 0))
	pair, abnormal := clusteredWindow(f, 120, 10, 8, testCfg.R, 7)
	clustered := windowOf(pair, abnormal, testCfg, nil)
	clustered.to = len(abnormal)
	f.Add(appendWindow(nil, clustered))
	big := appendWindow(nil, clustered)
	f.Add(big)
	clustered.from, clustered.to = 15, 55
	f.Add(appendWindow(nil, clustered))

	const perByte, slack = 64, 1 << 20
	f.Fuzz(func(t *testing.T, req []byte) {
		first := new(session).respond(nil, req)
		checkStatus(t, first)
		var ss session
		if resp := ss.respond(nil, big); resp[0] != statusOK {
			t.Fatalf("large window: %q", resp)
		}
		for _, leg := range []string{"after a larger window", "again"} {
			if again := ss.respond(nil, req); !bytes.Equal(again, first) {
				t.Fatalf("the request answered %s:\n%q\nfresh:\n%q", leg, again, first)
			}
		}
		if len(req) < rangeOffset+8 {
			return
		}
		empty := slices.Clone(req)
		setRange(empty, 0, 0)
		var resp []byte
		if got := allocated(func() { resp = ss.respond(nil, empty) }); got > perByte*uint64(len(req))+slack {
			t.Fatalf("window of %d bytes allocated %d", len(req), got)
		}
		checkStatus(t, resp)
	})
}

// TestRetiredDecideTypesRejected: the request types of earlier
// protocols — the window sent ahead of its decide and view requests
// (1, 4, 5, 6) and the inline-motion decide requests (2, 3) — get an
// unknown-type statusErr, so a peer on any of them degrades its window
// instead of misreading a response.
func TestRetiredDecideTypesRejected(t *testing.T) {
	var ss session
	req := oneRowWindow(10, 3)
	if resp := ss.respond(nil, req); resp[0] != statusOK {
		t.Fatalf("type %d: response %q", req[0], resp)
	}
	for typ := byte(1); typ <= 6; typ++ {
		req[0] = typ
		resp := ss.respond(nil, req)
		if _, err := decodeStatus(resp); !isAppError(err) || !bytes.Contains(resp, []byte("unknown message type")) {
			t.Fatalf("retired type %d: response %q (%v), want an unknown-type statusErr", typ, resp, err)
		}
	}
}

func checkStatus(t *testing.T, resp []byte) {
	t.Helper()
	if len(resp) == 0 || (resp[0] != statusOK && resp[0] != statusErr) {
		t.Fatalf("response %q has no known status", resp)
	}
}
