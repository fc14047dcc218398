package dist

import (
	"sync"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/scenario"
)

// TestParallelDecide hammers one read-only Directory with concurrent
// per-device decisions across all abnormal devices (run under -race)
// and asserts that every verdict and every per-device bill is identical
// to the sequential baseline, and that the summed totals are consistent
// round after round.
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

	// Sequential baseline on a second directory over the same window, so
	// the parallel rounds read one nothing else has touched.
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
