package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition for a small
// registry: HELP/TYPE lines, label rendering, histogram bucket
// cumulation, the +Inf bucket, _sum/_count, and deterministic
// registration order.
func TestWritePrometheusGolden(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", Label{Name: "code", Value: "200"})
	c.Add(7)
	r.Counter("test_requests_total", "Requests served.", Label{Name: "code", Value: "500"}).Inc()
	g := r.Gauge("test_temperature_celsius", "Current temperature.")
	g.Set(36.6)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{code="200"} 7
test_requests_total{code="500"} 1
# HELP test_temperature_celsius Current temperature.
# TYPE test_temperature_celsius gauge
test_temperature_celsius 36.6
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 101.05
test_latency_seconds_count 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelAndHelpEscaping pins the escaping rules: backslash, quote
// and newline in label values; backslash and newline in help text.
func TestLabelAndHelpEscaping(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("test_weird_total", "line one\nline \\two", Label{Name: "path", Value: "a\\b\"c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_weird_total line one\nline \\two
# TYPE test_weird_total counter
test_weird_total{path="a\\b\"c\nd"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("escaping mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerServesContentType(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("test_total", "t").Add(3)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 3") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestOnScrapeRunsBeforeRender(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("test_sampled", "sampled on scrape")
	n := 0.0
	r.OnScrape(func() { n++; g.Set(n) })
	var b strings.Builder
	r.WritePrometheus(&b)
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "test_sampled 1") || !strings.Contains(b.String(), "test_sampled 2") {
		t.Fatalf("hook not run per scrape:\n%s", b.String())
	}
}

// TestRegistrationIdempotent: same (name, kind, labels) returns the
// same holder whatever the label order; a kind clash panics.
func TestRegistrationIdempotent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a := r.Counter("test_total", "t", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	b := r.Counter("test_total", "t", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if a != b {
		t.Fatal("label order produced distinct series")
	}
	h1 := r.Histogram("test_h", "h", nil)
	h2 := r.Histogram("test_h", "h", []float64{1, 2, 3})
	if h1 != h2 {
		t.Fatal("re-registration replaced histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("test_total", "t")
}

func TestValidateName(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{"", "9lives", "a-b", "a b", "héllo"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
	NewRegistry().Counter("a_b:c_9", "") // must not panic
}

func TestHistogramQuantile(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("test_q", "q", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
	// 100 observations uniform in (0,1], 100 in (1,2].
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if q := h.Quantile(0.25); q != 0.5 {
		t.Fatalf("p25 = %v, want 0.5 (midpoint of first bucket)", q)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1 (first bucket boundary)", q)
	}
	if q := h.Quantile(0.75); q != 1.5 {
		t.Fatalf("p75 = %v, want 1.5", q)
	}
	if q := h.Quantile(1); q != 2 {
		t.Fatalf("p100 = %v, want 2", q)
	}
	// An observation beyond the last finite bound clamps there.
	h.Observe(1000)
	if q := h.Quantile(0.9999); q != 4 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 4", q)
	}
}

func TestHistogramSumAndCount(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("test_s", "s", nil) // DefBuckets
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Sum() != 55 {
		t.Fatalf("sum %v", h.Sum())
	}
}

// TestConcurrentRecordAndScrape hammers every holder type from many
// goroutines while others scrape and register — the -race pin for the
// package's concurrency contract.
func TestConcurrentRecordAndScrape(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_g", "g")
	h := r.Histogram("test_h", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-3)
				if i%100 == 0 {
					r.Counter("test_late_total", "late", Label{Name: "w", Value: "x"}).Inc()
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count %d, want 8000", h.Count())
	}
	if h.Sum() < 0 {
		t.Fatal("sum corrupted")
	}
}

// BenchmarkRecord pins the zero-allocation contract of the hot-path
// record calls.
func BenchmarkRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "b")
	g := r.Gauge("bench_g", "b")
	h := r.Histogram("bench_h", "b", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i&1023) * 1e-3)
	}
	if b.N > 0 { // keep holders live
		_ = c.Value()
	}
}

// allocSink keeps TestRuntimeCountersGrowAcrossGC's allocations on the
// heap.
var allocSink [][]byte

// TestRuntimeCountersGrowAcrossGC: across allocations and a forced
// runtime.GC, two scrapes of the runtime families read more allocated
// bytes and objects, more completed cycles and no less pause.
func TestRuntimeCountersGrowAcrossGC(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	names := []string{"anomalia_go_alloc_bytes_total", "anomalia_go_mallocs_total", "anomalia_go_gc_cycles_total", "anomalia_go_gc_pause_ns_total"}
	read := func() []int64 {
		r.WritePrometheus(io.Discard)
		v := make([]int64, len(names))
		for i, name := range names {
			v[i] = r.Counter(name, "").Value()
		}
		return v
	}
	before := read()
	for range 64 {
		allocSink = append(allocSink, make([]byte, 4096))
	}
	runtime.GC()
	after := read()
	allocSink = nil
	for i, name := range names[:3] {
		if after[i] <= before[i] {
			t.Errorf("%s = %d after a GC, %d before", name, after[i], before[i])
		}
	}
	if after[3] < before[3] {
		t.Errorf("%s fell from %d to %d", names[3], before[3], after[3])
	}
	if heap := r.Gauge("anomalia_go_heap_alloc_bytes", "").Value(); heap <= 0 {
		t.Errorf("heap gauge = %v, want > 0", heap)
	}
}

// TestPauseLowerBound: each bucket's count weighs in at its lower
// edge, and the underflow bucket below zero counts for nothing.
func TestPauseLowerBound(t *testing.T) {
	t.Parallel()
	h := &rtmetrics.Float64Histogram{
		Counts:  []uint64{5, 2, 3, 1},
		Buckets: []float64{math.Inf(-1), 0, 1e-6, 1e-3, math.Inf(1)},
	}
	if got, want := pauseLowerBound(h), 3e-6+1e-3; math.Abs(got-want) > 1e-15 {
		t.Fatalf("pauseLowerBound = %v, want %v", got, want)
	}
}
