package dist

import (
	"fmt"
	"sync"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/motion"
	"anomalia/internal/scenario"
	"anomalia/internal/space"
	"anomalia/internal/stats"
)

// TestParallelDecide hammers one Directory with concurrent Decide calls
// across all abnormal devices (run under -race) and asserts that every
// verdict and every per-device bill is identical to the sequential
// baseline, and that the summed totals are consistent round after round.
func TestParallelDecide(t *testing.T) {
	t.Parallel()

	const r = 0.03
	coreCfg := core.Config{R: r, Tau: 3, Exact: true}
	step := genWindow(t, scenario.Config{
		N: 400, D: 2, R: r, Tau: 3, A: 25, G: 0.3,
		Concomitant: true, MaxShift: 2 * r, Seed: 33,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential baseline on a fresh directory (cold cache) — the shared
	// directory above stays cold for the parallel rounds, so the first
	// round also exercises concurrent block building.
	baselineDir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	type verdict struct {
		class core.Class
		rule  core.Rule
		stats Stats
	}
	baseline := make(map[int]verdict, len(step.Abnormal))
	var baseTotal Stats
	for _, j := range step.Abnormal {
		res, st, err := Decide(baselineDir, j, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		baseline[j] = verdict{class: res.Class, rule: res.Rule, stats: st}
		baseTotal.Add(st)
	}

	const rounds = 4
	for round := 0; round < rounds; round++ {
		got := make([]verdict, len(step.Abnormal))
		errs := make([]error, len(step.Abnormal))
		var wg sync.WaitGroup
		for i, j := range step.Abnormal {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				res, st, err := Decide(dir, j, coreCfg)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = verdict{class: res.Class, rule: res.Rule, stats: st}
			}(i, j)
		}
		wg.Wait()
		var total Stats
		for i, j := range step.Abnormal {
			if errs[i] != nil {
				t.Fatalf("round %d device %d: %v", round, j, errs[i])
			}
			if got[i] != baseline[j] {
				t.Errorf("round %d device %d: parallel %+v != sequential %+v",
					round, j, got[i], baseline[j])
			}
			total.Add(got[i].stats)
		}
		if total != baseTotal {
			t.Errorf("round %d: total %+v != baseline total %+v", round, total, baseTotal)
		}
	}
}

// TestParallelDecideAll runs several whole-window batches concurrently
// against one Directory; each must independently produce the same
// decisions and totals.
func TestParallelDecideAll(t *testing.T) {
	t.Parallel()

	const r = 0.03
	coreCfg := core.Config{R: r, Tau: 3, Exact: true}
	step := genWindow(t, scenario.Config{
		N: 300, D: 2, R: r, Tau: 3, A: 15, G: 0.5,
		Concomitant: true, MaxShift: 2 * r, Seed: 44,
	})
	dir, err := NewDirectory(step.Pair, step.Abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal, err := DecideAll(dir, coreCfg)
	if err != nil {
		t.Fatal(err)
	}

	const batches = 3
	results := make([][]Decision, batches)
	totals := make([]Stats, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			results[b], totals[b], errs[b] = DecideAll(dir, coreCfg)
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		if totals[b] != wantTotal {
			t.Errorf("batch %d: total %+v != %+v", b, totals[b], wantTotal)
		}
		if len(results[b]) != len(want) {
			t.Fatalf("batch %d: %d decisions, want %d", b, len(results[b]), len(want))
		}
		for i := range want {
			if results[b][i].Result.Device != want[i].Result.Device ||
				results[b][i].Result.Class != want[i].Result.Class ||
				results[b][i].Result.Rule != want[i].Result.Rule ||
				results[b][i].Stats != want[i].Stats {
				t.Errorf("batch %d decision %d: %+v != %+v",
					b, i, results[b][i], want[i])
			}
		}
	}
}

// TestAdvanceRaceDecide hammers one Directory with concurrent
// Decide and DecideAll calls while a writer advances it through a cycle
// of precomputed windows (run under -race). Publish-then-swap semantics
// are asserted behaviourally: every batch and every single decision must
// be byte-identical to the sequential output of exactly one window —
// never a torn mix of two — and a device absent from the served window
// must fail with ErrUnknownDevice, nothing else.
func TestAdvanceRaceDecide(t *testing.T) {
	t.Parallel()

	const (
		r       = 0.03
		n       = 200
		windows = 6
		readers = 4
	)
	coreCfg := core.Config{R: r, Tau: 3, Exact: true}

	// Precompute the windows: a rolling state evolution with ~5% moves
	// and an abnormal set that keeps a stable core (ids < n/2, even) and
	// swaps a marker id per window so every window's batch output is
	// distinguishable.
	rng := stats.NewRNG(977)
	type win struct {
		pair     *motion.Pair
		abnormal []int
		expected map[int]Decision // per-device sequential baseline
		total    Stats
	}
	prev, err := space.NewState(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev.Uniform(rng.Float64)
	var core_ []int
	for j := 0; j < n/2; j += 2 {
		if rng.Float64() < 0.4 {
			core_ = append(core_, j)
		}
	}
	wins := make([]*win, windows)
	for wi := range wins {
		cur := prev.Clone()
		for k := 0; k < n/20; k++ {
			j := rng.Intn(n)
			if err := cur.Set(j, space.Point{rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		abnormal := append([]int(nil), core_...)
		abnormal = append(abnormal, n/2+wi) // marker id unique to this window
		for j := n/2 + windows; j < n; j++ {
			if rng.Float64() < 0.2 {
				abnormal = append(abnormal, j)
			}
		}
		pair, err := motion.NewPair(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := NewDirectory(pair, abnormal, r)
		if err != nil {
			t.Fatal(err)
		}
		decs, total, err := DecideAll(dir, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		w := &win{pair: pair, abnormal: dir.Abnormal(), expected: map[int]Decision{}, total: total}
		for _, dec := range decs {
			w.expected[dec.Result.Device] = dec
		}
		wins[wi] = w
		prev = cur
	}

	// The racing directory starts on window 0; the writer advances it
	// through the cycle several times, exercising both warm and cold
	// caches and both the delta and (on the larger hops) rebuild paths.
	dir, err := NewDirectory(wins[0].pair, wins[0].abnormal, r)
	if err != nil {
		t.Fatal(err)
	}
	sameDecision := func(a, b Decision) bool {
		return a.Result.Device == b.Result.Device &&
			a.Result.Class == b.Result.Class &&
			a.Result.Rule == b.Result.Rule &&
			a.Stats == b.Stats
	}

	done := make(chan struct{})
	errs := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		go func(g int) {
			rrng := stats.NewRNG(int64(g) + 1)
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if g%2 == 0 {
					decs, total, err := DecideAll(dir, coreCfg)
					if err != nil {
						errs <- err
						return
					}
					// The marker id makes every window's abnormal set
					// unique, so the batch identifies its source window —
					// and must then match it exactly.
					var src *win
					for wi := range wins {
						if slicesDevicesEqual(decs, wins[wi].abnormal) {
							src = wins[wi]
							break
						}
					}
					if src == nil {
						errs <- fmt.Errorf("DecideAll output matches no precomputed window (%d decisions)", len(decs))
						return
					}
					if total != src.total {
						errs <- fmt.Errorf("torn batch: total %+v, window expects %+v", total, src.total)
						return
					}
					for _, dec := range decs {
						if !sameDecision(dec, src.expected[dec.Result.Device]) {
							errs <- fmt.Errorf("torn decision for device %d", dec.Result.Device)
							return
						}
					}
				} else {
					// Core devices exist in every window: a Decide must
					// match one window's sequential verdict exactly.
					j := core_[rrng.Intn(len(core_))]
					res, st, err := Decide(dir, j, coreCfg)
					if err != nil {
						errs <- fmt.Errorf("core device %d: %w", j, err)
						return
					}
					got := Decision{Result: res, Stats: st}
					ok := false
					for _, w := range wins {
						if sameDecision(got, w.expected[j]) {
							ok = true
							break
						}
					}
					if !ok {
						errs <- fmt.Errorf("device %d: verdict matches no window", j)
						return
					}
				}
			}
		}(g)
	}

	go func() {
		for cycle := 0; cycle < 3; cycle++ {
			for wi := 1; wi <= windows; wi++ {
				w := wins[wi%windows]
				if _, err := dir.Advance(w.pair, w.abnormal, nil); err != nil {
					errs <- err
					return
				}
			}
		}
		close(done)
		errs <- nil
	}()

	for g := 0; g < readers+1; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// slicesDevicesEqual reports whether the decision batch covers exactly
// the given sorted device set, in order.
func slicesDevicesEqual(decs []Decision, devices []int) bool {
	if len(decs) != len(devices) {
		return false
	}
	for i := range decs {
		if decs[i].Result.Device != devices[i] {
			return false
		}
	}
	return true
}
