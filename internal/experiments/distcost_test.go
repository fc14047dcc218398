package experiments

import (
	"strconv"
	"testing"
)

// TestDistCostSmall runs the distributed-deployment cost study on a
// scaled-down grid and sanity-checks the bills: every error load yields
// a row, and a deciding device always exchanges at least two messages
// (request + response) for a view of at least itself.
func TestDistCostSmall(t *testing.T) {
	t.Parallel()

	cfg := DistCostConfig{
		N: 300, D: 2, R: 0.03, Tau: 3,
		As:    []int{1, 10},
		G:     0.3,
		Steps: 2,
		Seed:  3,
	}
	tab, err := DistCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.As) {
		t.Fatalf("%d rows for %d error loads", len(tab.Rows), len(cfg.As))
	}
	for _, row := range tab.Rows {
		if len(row) != 8 {
			t.Fatalf("row %v has %d cells, want 8", row, len(row))
		}
		msgs, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("messages cell %q: %v", row[2], err)
		}
		views, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("view size cell %q: %v", row[4], err)
		}
		if msgs < 2 {
			t.Errorf("row %v: mean messages %v < 2", row, msgs)
		}
		if views < 1 {
			t.Errorf("row %v: mean view size %v < 1", row, views)
		}
		// The measured wire columns: a decided window costs real frame
		// bytes and, on the one-shard fixture, exactly one exchange (the
		// window's one request), and a faultless in-process transport
		// must never retry.
		wireBytes, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("wire bytes cell %q: %v", row[5], err)
		}
		wireRTs, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("round-trips cell %q: %v", row[6], err)
		}
		if wireBytes <= 0 {
			t.Errorf("row %v: wire bytes/window %v, want > 0", row, wireBytes)
		}
		if wireRTs != 1 {
			t.Errorf("row %v: wire round-trips/window %v, want 1", row, wireRTs)
		}
		if row[7] != "0" {
			t.Errorf("row %v: %q retries over a faultless transport", row, row[7])
		}
	}
}

// TestDistCostDeterministic: equal seeds must reproduce the cost table
// cell for cell across its deterministic columns — the property that
// makes BENCH_*.json trajectories comparable across runs.
func TestDistCostDeterministic(t *testing.T) {
	t.Parallel()

	cfg := DistCostConfig{
		N: 200, D: 2, R: 0.03, Tau: 3,
		As:    []int{5},
		G:     0.5,
		Steps: 2,
		Seed:  9,
	}
	a, err := DistCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		// The trailing wire columns are measured; everything before them
		// must reproduce cell for cell.
		for c := 0; c < DistCostDeterministicCols; c++ {
			if a.Rows[i][c] != b.Rows[i][c] {
				t.Fatalf("row %d cell %d: %q != %q", i, c, a.Rows[i][c], b.Rows[i][c])
			}
		}
	}
}
