package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, one gauge, and one histogram
// from many goroutines — run under -race, this is the registry's
// concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-fetch through the registry each iteration: get-or-create
			// of an existing child must be safe alongside updates.
			for i := 0; i < iters; i++ {
				r.Counter("reqs_total", "").Inc()
				r.Gauge("depth", "").Add(1)
				r.Histogram("lat_seconds", "", []float64{0.5}).Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("reqs_total", "").Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	if got := r.Gauge("depth", "").Value(); got != workers*iters {
		t.Fatalf("gauge = %v, want %d", got, workers*iters)
	}
	h := r.Histogram("lat_seconds", "", nil)
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if want := float64(workers*iters) * 0.25; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "")
	c.Add(3)
	c.Add(-5) // ignored: counters never decrease
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %v, want 4", c.Value())
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) semantics: a
// sample exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bounds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	// Direct (non-cumulative) bucket occupancy: le=1 holds 0.5 and 1,
	// le=2 holds 1.5 and 2, le=5 holds 5, +Inf holds 7.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 || h.Sum() != 17 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Cumulative exposition: 2, 4, 5, 6.
	for _, line := range []string{
		`bounds_bucket{le="1"} 2`,
		`bounds_bucket{le="2"} 4`,
		`bounds_bucket{le="5"} 5`,
		`bounds_bucket{le="+Inf"} 6`,
		`bounds_sum 17`,
		`bounds_count 6`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", DurationBuckets())
	h.ObserveDuration(2500 * time.Microsecond)
	if h.Sum() != 0.0025 {
		t.Fatalf("sum = %v, want 0.0025", h.Sum())
	}
}

// TestWritePrometheusGolden locks the exposition byte-for-byte: family
// ordering, HELP/TYPE comments, label sorting and escaping, histogram
// expansion, and value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "Last family by name.").Add(2)
	r.Counter("alpha_total", "Labelled counter.",
		Label{Name: "node", Value: "full"}, Label{Name: "chain", Value: "0"}).Add(7)
	r.Counter("alpha_total", "Labelled counter.",
		Label{Name: "chain", Value: "1"}, Label{Name: "node", Value: "full"}).Inc()
	r.Gauge("beta", "A gauge.").Set(1.5)
	r.Histogram("gamma_seconds", "A histogram.", []float64{0.1, 1}).Observe(0.05)
	r.Histogram("gamma_seconds", "A histogram.", nil).Observe(3)

	const want = `# HELP alpha_total Labelled counter.
# TYPE alpha_total counter
alpha_total{chain="0",node="full"} 7
alpha_total{chain="1",node="full"} 1
# HELP beta A gauge.
# TYPE beta gauge
beta 1.5
# HELP gamma_seconds A histogram.
# TYPE gamma_seconds histogram
gamma_seconds_bucket{le="0.1"} 1
gamma_seconds_bucket{le="1"} 1
gamma_seconds_bucket{le="+Inf"} 2
gamma_seconds_sum 3.05
gamma_seconds_count 2
# HELP zeta_total Last family by name.
# TYPE zeta_total counter
zeta_total 2
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestLabelOrderIsOneChild: the same label set in any order resolves to
// one child.
func TestLabelOrderIsOneChild(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Label{Name: "a", Value: "1"}, Label{Name: "b", Value: "2"})
	b := r.Counter("x_total", "", Label{Name: "b", Value: "2"}, Label{Name: "a", Value: "1"})
	if a != b {
		t.Fatal("label order created distinct children")
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{Name: "v", Value: "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestEmptyFamiliesSkipped(t *testing.T) {
	r := NewRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("empty registry produced output: %q", b.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	mustPanic("invalid metric name", func() { r.Counter("9bad", "") })
	mustPanic("invalid label name", func() { r.Counter("ok_total", "", Label{Name: "le:", Value: "x"}) })
	mustPanic("unsorted buckets", func() { r.Histogram("h", "", []float64{1, 1}) })
	r.Counter("typed_total", "")
	mustPanic("type mismatch", func() { r.Gauge("typed_total", "") })
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:             "0",
		42:            "42",
		-3:            "-3",
		1.5:           "1.5",
		0.0025:        "0.0025",
		math.Inf(+1):  "+Inf",
		1e15:          "1e+15", // beyond the integral cutoff
		1234567890123: "1234567890123",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestHistogramQuantile pins the interpolation estimator: uniform samples
// across known buckets must recover the exact quantiles, and the edge
// cases (empty, +Inf overflow, clamped q) behave as documented.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN")
	}
	// 100 samples: 50 in (0,1], 25 in (1,2], 25 in (2,4].
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	h.ObserveN(1.5, 25) // a pre-bucketed source replays a bucket at once
	h.ObserveN(3, 0)
	for i := 0; i < 25; i++ {
		h.Observe(3)
	}
	if h.Count() != 100 || h.Sum() != 50*0.5+25*1.5+25*3 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	cases := []struct{ q, want float64 }{
		{0.25, 0.5},  // rank 25 of 50 in bucket (0,1] → halfway
		{0.5, 1.0},   // rank 50: exactly exhausts the first bucket
		{0.75, 2.0},  // rank 75: exhausts the second
		{0.875, 3.0}, // rank 87.5: halfway through (2,4]
		{1.0, 4.0},
		{-1, 0.0},  // clamps to q=0 → lower edge of first occupied bucket
		{2.0, 4.0}, // clamps to q=1
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Overflow samples land in +Inf; the estimate clamps to the top bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) with +Inf samples = %v, want clamp to 4", got)
	}
}

// TestHistogramQuantileEdges pins the degenerate shapes the interpolation
// loop has to survive: a single bucket, the exact q=0/q=1 endpoints, a
// bound-less histogram, a NaN quantile, and empty leading buckets.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()

	// A histogram with no finite bounds can't place any estimate. The
	// registry substitutes DurationBuckets for empty bounds, so the only
	// way to reach this guard is a zero-value struct.
	unbounded := &Histogram{}
	unbounded.count.Add(1)
	if !math.IsNaN(unbounded.Quantile(0.5)) {
		t.Error("histogram without bounds must report NaN")
	}

	// Single bucket: the whole distribution interpolates across (0, 10].
	single := r.Histogram("edge_single", "", []float64{10})
	single.Observe(5)
	if !math.IsNaN(single.Quantile(math.NaN())) {
		t.Error("NaN quantile must report NaN")
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0},   // lower edge of the only occupied bucket
		{0.5, 5}, // halfway through it
		{1, 10},  // upper bound
	} {
		if got := single.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("single-bucket Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Empty histograms stay NaN at the endpoints too, not zero.
	empty := r.Histogram("edge_empty", "", []float64{1, 2})
	if !math.IsNaN(empty.Quantile(0)) || !math.IsNaN(empty.Quantile(1)) {
		t.Error("empty histogram must report NaN at q=0 and q=1")
	}

	// q=0 skips zero-count buckets: the estimate starts at the lower edge
	// of the first bucket that actually holds samples.
	skewed := r.Histogram("edge_skewed", "", []float64{1, 2, 4})
	skewed.Observe(1.5)
	skewed.Observe(1.5)
	if got := skewed.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) with empty first bucket = %v, want 1", got)
	}
	if got := skewed.Quantile(1); got != 2 {
		t.Errorf("Quantile(1) = %v, want 2", got)
	}

	// Everything in +Inf: no finite bucket can satisfy the rank, so the
	// estimate clamps to the highest finite bound.
	overflow := r.Histogram("edge_overflow", "", []float64{1})
	overflow.Observe(50)
	if got := overflow.Quantile(0.5); got != 1 {
		t.Errorf("all-overflow Quantile(0.5) = %v, want clamp to 1", got)
	}
}
