// Package metrics is the runtime observability surface: a small,
// dependency-free registry of counters, gauges and fixed-bucket
// histograms with a Prometheus text-format exporter. It exists so the
// Monitor's per-window ledgers (tick latency by phase, abnormal-set
// churn, directory builds, the health split, the directory
// wire counters, GC pressure) stop being end-of-run printouts and
// become a live scrape target.
//
// The hot-path contract: recording — Counter.Add/Set, Gauge.Set,
// Histogram.Observe — is a handful of atomic operations and never
// allocates, so instrumentation is admissible inside the quiet-tick
// alloc gates (the instrumented n=1M quiet tick is benchmarked and
// gated at no added allocation over the plain one). Registration
// allocates and takes a lock; do it at construction time, not per
// window. Export allocates freely — a scrape is off the hot path by
// definition.
//
// Concurrency: every value type is safe for concurrent use. A scraper
// goroutine serving /metrics reads the same atomics a Monitor writes
// mid-Observe; no snapshot coordination is needed because each sample
// is a single word. Families render in registration order, so the text
// exposition is deterministic for a fixed wiring — what the golden
// exporter test pins.
package metrics

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a series at
// registration time. Values are escaped on export; names must be valid
// Prometheus label names.
type Label struct {
	Name  string
	Value string
}

// Kind discriminates the metric families.
type Kind uint8

// Family kinds, in Prometheus TYPE vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotone int64. Add increments it; Set overwrites it
// with an absolute value, for feeds that mirror an external lifetime
// counter (the Monitor's health and wire ledgers accumulate elsewhere
// and are published here on scrape). Both are single atomic stores.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter with an absolute value. The caller owns
// monotonicity; Set exists for mirroring lifetime ledgers kept
// elsewhere.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that goes up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is zero-allocation: a linear scan over the
// (small, sorted) bound slice, one bucket increment, one count
// increment and a CAS loop folding the value into the sum.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // len(bounds)+1, non-cumulative
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the holding bucket — the usual
// histogram_quantile estimate. The +Inf bucket clamps to the highest
// finite bound (there is nothing to interpolate against); an empty
// histogram returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum)+float64(c) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				if len(h.bounds) == 0 {
					return math.NaN()
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are general-purpose latency buckets in seconds, 100µs to
// ~100s in roughly 3x steps — wide enough to hold both a quiet
// million-device tick and an adversarial mass-event window.
var DefBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// series is one labelled sample of a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups every series sharing one metric name: the unit the
// exporter emits one HELP/TYPE header for.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text format. The zero value is not usable; call NewRegistry.
// Registration is mutex-guarded and idempotent (same name, kind and
// label set returns the existing value holder); recording on the
// returned holders is lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers a hook run at the start of every WritePrometheus
// call — the place to sample state that is only worth reading when
// someone is looking (process memory stats in the shard server, for
// example). Hooks run in registration order under the registry lock,
// so they must not register metrics or scrape recursively.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, f)
}

// RegisterRuntime registers the anomalia_go_* families — live heap,
// cumulative allocated bytes and objects, GC cycles and stop-the-world
// pause — and fills them on every scrape, the only time anyone reads
// them, from one runtime/metrics read into a sample slice allocated
// here. Unlike runtime.ReadMemStats, the read does not stop the world.
// runtime/metrics keeps GC pauses only as a histogram, so the pause
// counter sums each bucket's count times its lower bound: a lower
// bound on the total pause that never decreases.
func RegisterRuntime(r *Registry) {
	heap := r.Gauge("anomalia_go_heap_alloc_bytes", "Live heap bytes, sampled on scrape.")
	allocBytes := r.Counter("anomalia_go_alloc_bytes_total", "Cumulative heap bytes allocated, sampled on scrape.")
	mallocs := r.Counter("anomalia_go_mallocs_total", "Cumulative heap objects allocated, sampled on scrape.")
	gcCycles := r.Counter("anomalia_go_gc_cycles_total", "Completed GC cycles, sampled on scrape.")
	gcPause := r.Counter("anomalia_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause, sampled on scrape: a monotone lower bound summed over the runtime's pause histogram at each bucket's lower edge.")
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	// Scrape hooks run under the registry lock, so one slice serves
	// every scrape.
	r.OnScrape(func() {
		rtmetrics.Read(samples)
		heap.Set(float64(samples[0].Value.Uint64()))
		allocBytes.Set(int64(samples[1].Value.Uint64()))
		mallocs.Set(int64(samples[2].Value.Uint64()))
		gcCycles.Set(int64(samples[3].Value.Uint64()))
		gcPause.Set(int64(pauseLowerBound(samples[4].Value.Float64Histogram()) * 1e9))
	})
}

// pauseLowerBound returns the sum of h's counts, each at its bucket's
// lower edge, with an edge below zero taken as zero.
func pauseLowerBound(h *rtmetrics.Float64Histogram) float64 {
	total := 0.0
	for i, c := range h.Counts {
		if lo := h.Buckets[i]; lo > 0 {
			total += float64(c) * lo
		}
	}
	return total
}

// validateName panics on names outside the Prometheus grammar —
// registration happens at construction time, so a bad name is a
// programming error, not an input error.
func validateName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup finds or creates the family and series for (name, kind,
// labels). A name reused with a different kind panics: the exposition
// format cannot express it.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	validateName(name)
	for _, l := range labels {
		validateName(l.Name)
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, sorted) {
			return s
		}
	}
	s := &series{labels: sorted}
	switch kind {
	case KindCounter:
		s.ctr = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	}
	// Histograms fill h in the caller, which knows the bounds.
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, labels).ctr
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, KindGauge, labels).gauge
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending upper bounds (nil selects DefBuckets). Bounds
// are fixed for the series' lifetime; a re-registration's bounds are
// ignored in favour of the existing ones.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("metrics: %s: histogram bounds not ascending", name))
			}
		}
		own := make([]float64, len(bounds))
		copy(own, bounds)
		s.hist = &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}
	}
	return s.hist
}

// FamilyNames returns the registered family names in registration
// order — the doc-sync tests' source of truth.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}
