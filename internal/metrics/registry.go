package metrics

// The live-telemetry registry: named counters, gauges, and fixed-bucket
// histograms, concurrent-safe and zero-dependency, with a Prometheus
// text-format encoder. The Collector in metrics.go remains the after-the-
// fact per-epoch record the benches read; the registry is the always-on
// view a running node exports over HTTP (see server.go).
//
// The design follows the Prometheus client conventions without importing
// it: metrics belong to families (one name, one type, one help string),
// families fan out into children by label set, and instruments are cheap
// enough for hot paths — a child update is one or two atomic operations,
// and get-or-create of an existing child is a short critical section that
// callers on per-epoch paths need not cache around.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair attached to a metric child.
type Label struct {
	Name  string
	Value string
}

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern — the standard lock-free float accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. The zero value is usable
// but unregistered; obtain counters from a Registry.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add adjusts the value by the (possibly negative) delta.
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram counts observations into fixed cumulative buckets, tracking
// the total sum and count alongside. Buckets are upper bounds; a final
// +Inf bucket is implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value — a pre-bucketed source
// (the MVCC depth histogram) replays a bucket in one call.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(n)
	h.sum.add(v * float64(n))
	h.count.Add(n)
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit for time series.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-th quantile (q in [0, 1]) from the bucket
// counts by linear interpolation inside the owning bucket — the same
// estimator Prometheus's histogram_quantile applies server-side, so a
// report printed from this method matches what a dashboard would show.
// Resolution is bounded by bucket width: with DurationBuckets a p99 of
// "3.1ms" really means "in the 2.5–5ms bucket, ~24% in". Returns NaN on
// an empty histogram; samples in the +Inf bucket clamp to the highest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (bound-lower)*(rank-cum)/c
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// DurationBuckets are the default histogram bounds for stage/phase
// latencies, in seconds: 100 µs up to 10 s, roughly ×2.5 per step — wide
// enough to cover an instant-mining bench epoch and a contended
// production epoch in the same series.
func DurationBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labelled instance inside a family.
type child struct {
	labels []Label
	metric any // *Counter, *Gauge, or *Histogram
}

// family groups every child sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child // keyed by encoded label set
}

// Registry is a concurrent collection of metric families. Get-or-create
// lookups and exposition may interleave freely with hot-path updates.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry backs Default(). Instrumented packages (node, core, dag,
// consensus, p2p, kvstore) register against it at import time, mirroring
// the Prometheus default-registerer idiom, so wiring a live endpoint is
// one StartServer call away from any binary.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every built-in instrument
// registers on.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter with the given name and labels, creating
// the family and child as needed. It panics if the name is invalid or
// already registered as a different type — a programmer error, like
// prometheus.MustRegister.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.getOrCreate(name, help, kindCounter, nil, labels, func() any { return &Counter{} })
	return c.(*Counter)
}

// Gauge returns the gauge with the given name and labels, creating it as
// needed. Same panic contract as Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := r.getOrCreate(name, help, kindGauge, nil, labels, func() any { return &Gauge{} })
	return g.(*Gauge)
}

// Histogram returns the histogram with the given name, buckets, and
// labels, creating it as needed. Buckets must be strictly increasing;
// they are fixed by the first registration of the family (later calls may
// pass nil). Same panic contract as Counter.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	h := r.getOrCreate(name, help, kindHistogram, buckets, labels, nil)
	return h.(*Histogram)
}

func (r *Registry) getOrCreate(name, help string, kind metricKind, bounds []float64, labels []Label, mk func() any) any {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Name, name))
		}
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		if kind == kindHistogram {
			if len(bounds) == 0 {
				bounds = DurationBuckets()
			}
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered as %s, requested %s", name, f.kind, kind))
	}

	// Children sort their labels once at creation so the same set in any
	// order maps to one child and one exposition line.
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	key := labelKey(ls)

	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch.metric
	}
	var m any
	if kind == kindHistogram {
		m = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	} else {
		m = mk()
	}
	f.children[key] = &child{labels: ls, metric: m}
	return m
}

// labelKey encodes a sorted label set as it appears in the exposition
// format (also the dedup key).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// formatValue renders a sample value. Integral values print without an
// exponent so counters read naturally; +Inf matches the exposition spec.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus encodes every family in the Prometheus text exposition
// format (version 0.0.4): families in name order, children in label-set
// order, histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			f.mu.Unlock()
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			ch := f.children[k]
			switch m := ch.metric.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatValue(m.Value()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatValue(m.Value()))
			case *Histogram:
				writeHistogram(&b, f.name, ch.labels, m)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram expands one histogram child. Bucket counts are
// cumulative per the exposition format; the le label joins the child's
// own labels in sorted position.
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelKey(withLE(labels, formatValue(bound))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelKey(withLE(labels, "+Inf")), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelKey(labels), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelKey(labels), h.Count())
}

// withLE returns the label set plus an le label, re-sorted.
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	out = append(out, Label{Name: "le", Value: le})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
