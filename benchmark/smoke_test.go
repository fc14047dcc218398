package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// smokeScale and smokeTicks shrink every workload to a few seconds.
const (
	smokeScale = 0.01
	smokeTicks = 20
)

// TestWorkloadsSmoke runs every workload at 1/100 scale, untraced and
// traced: no tick may fail, the traced composition must reproduce the
// Monitor's records byte for byte, one seed must give the same records
// twice and another seed different ones, and the lossy workload must
// quarantine and re-admit at least one device.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(smokeScale)
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			untraced, err := runWorkload(w, 1, smokeTicks, 0, false, &log)
			if err != nil {
				t.Fatal(err)
			}
			if untraced.failed != 0 {
				t.Fatalf("%d of %d untraced ticks failed:\n%s", untraced.failed, untraced.attempted, log.String())
			}
			for _, m := range untraced.metrics {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}

			traced, err := runWorkload(w, 1, smokeTicks, 0, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("%d of %d traced ticks failed:\n%s", traced.failed, traced.attempted, log.String())
			}
			if !bytes.Equal(traced.digest, traced.traceDigest) {
				t.Fatalf("Monitor records %x, traced composition %x", traced.digest, traced.traceDigest)
			}
			again, err := runWorkload(w, 1, smokeTicks, 0, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.digest, traced.digest) {
				t.Fatal("the same seed gave different records")
			}
			other, err := runWorkload(w, 2, smokeTicks, 0, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(other.digest, traced.digest) {
				t.Fatal("another seed gave the same records")
			}

			if h := traced.health; w.loss > 0 && (h.Quarantines == 0 || h.Readmissions == 0) {
				t.Fatalf("lossy stream: %d quarantines, %d readmissions", h.Quarantines, h.Readmissions)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric names and units the
// program prints against the lists in BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s here but not in BENCHMARK.json", i, w.name)
		}
	}
	w := workloads[3].scaled(smokeScale)
	for _, trace := range []bool{false, true} {
		res, err := runWorkload(w, 1, 3, 0, trace, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		var got []entry
		for _, m := range res.metrics {
			got = append(got, entry{m.name, m.unit})
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		if !slices.Equal(got, want) {
			t.Errorf("trace=%v: program reports %v, BENCHMARK.json lists %v", trace, got, want)
		}
	}
}
