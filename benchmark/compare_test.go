package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{share: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		bd     bound
		want   string
	}{
		{"same runs", shift(0), lower, "no worse"},
		{"slightly worse", shift(3), lower, "no worse"},
		{"beyond the bound", shift(20), lower, "regressed"},
		{"faster everywhere", shift(-10), lower, "improved"},
		{"higher is better", shift(-20), bound{share: 0.1, higher: true}, "regressed"},
		{"too noisy", []float64{50, 150, 60, 140, 100, 100, 70, 130, 100, 100}, lower, "unresolved"},
		{"count rose", shift(1), bound{}, "regressed"},
		{"count held", shift(0), bound{}, "no worse"},
	} {
		if got := verdict(base, tc.change, tc.bd); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareSets runs -compare on two saved sets: identical runs read
// "no worse" everywhere, and a doubled tick time regresses.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, p50 float64) {
		if err := os.MkdirAll(filepath.Join(dir, set), 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			body := fmt.Sprintf("steady-1m tick_p50_ms %g ms\nsteady-1m fail_ratio 0 ratio\n{\"correct\":true}\n", p50+float64(i%3))
			if err := os.WriteFile(filepath.Join(dir, set, fmt.Sprintf("r%02d.txt", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a", 40)
	write("b", 40)
	write("c", 80)
	var out bytes.Buffer
	regressed, err := compareSets(filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out)
	if err != nil || regressed || strings.Count(out.String(), "no worse") != 2 {
		t.Fatalf("A/A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compareSets(filepath.Join(dir, "a"), filepath.Join(dir, "c"), &out)
	if err != nil || !regressed {
		t.Fatalf("doubled tick: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
