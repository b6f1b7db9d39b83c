// Package obs is the observability layer of the IC stack: a
// zero-dependency metrics registry (counters, gauges, histograms,
// rendered in Prometheus text exposition format) and a task-trace
// recorder whose per-task spans carry the live |ELIGIBLE| gauge — the
// paper's §2.2 quality measure — at every event.
//
// The two halves share a design rule: everything they report must be
// reconcilable with the quality model in package sched.  The trace of a
// serial executor run reconstructs, via EligibilityProfile, the exact
// eligibility profile sched.Profile computes for the same order, so the
// observability layer is itself verified against the paper's oracle.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the registry's metric types for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
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

// Registry holds named metrics and renders them in Prometheus text
// format.  Metric names may carry a label suffix in standard notation
// (`requests_total{path="/tasks"}`); series of the same family (the name
// before '{') share one HELP/TYPE header.  Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // full series name -> *Counter | *Gauge | *Histogram
	help    map[string]string
	kind    map[string]metricKind // family name -> kind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]any),
		help:    make(map[string]string),
		kind:    make(map[string]metricKind),
	}
}

// family is the metric name up to the label block.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register returns the existing metric under name or stores make()'s
// result.  Re-registering a family under a different kind panics: that
// is a programming error no caller can meaningfully handle.
func (r *Registry) register(name, help string, k metricKind, make func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := family(name)
	if have, ok := r.kind[fam]; ok && have != k {
		panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", fam, have, k))
	}
	r.kind[fam] = k
	if help != "" {
		r.help[fam] = help
	}
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter returns the (monotonically increasing) counter registered
// under name, creating it at zero on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name, creating it at zero on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it
// with the given upper bucket bounds (ascending; +Inf is implicit) on
// first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, func() any {
		return &Histogram{bounds: append([]float64(nil), buckets...)}
	}).(*Histogram)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, sorted by series name, with one HELP/TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name string
		m    any
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		rows = append(rows, row{name, r.metrics[name]})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	kind := make(map[string]metricKind, len(r.kind))
	for k, v := range r.kind {
		kind[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool)
	for _, rw := range rows {
		fam := family(rw.name)
		if !seen[fam] {
			seen[fam] = true
			if h := help[fam]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fam, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, kind[fam])
		}
		switch m := rw.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %s\n", rw.name, formatValue(m.Value()))
		case *Gauge:
			fmt.Fprintf(&b, "%s %s\n", rw.name, formatValue(m.Value()))
		case *Histogram:
			m.write(&b, rw.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry at GET, in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// formatValue renders integral floats without an exponent or trailing
// zeros, matching what scrapers and tests expect for counters.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (must be ≥ 0; negative deltas are ignored to preserve
// monotonicity).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adds d (may be negative).
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into cumulative buckets with the
// standard Prometheus _bucket/_sum/_count rendering.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is +Inf
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]uint64, len(h.bounds)+1)
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile from the bucket counts,
// interpolating linearly within the bucket that contains the target rank
// — the same estimate Prometheus's histogram_quantile gives.  The lowest
// bucket interpolates from zero (bounds are assumed non-negative, as for
// latencies); a rank landing in the +Inf bucket is clamped to the
// largest finite bound.
//
// Edge cases are fully defined:
//   - an empty histogram (no observations, or no finite buckets) returns
//     NaN — the documented "no data" sentinel, distinguishable from a
//     real 0-valued quantile (callers writing JSON must guard it, e.g.
//     with QuantileOr);
//   - a NaN q returns NaN;
//   - q is clamped to [0, 1]: q ≤ 0 returns the lower edge of the first
//     occupied bucket (the distribution's minimum edge, never the upper
//     edge of an empty leading bucket), q ≥ 1 the upper edge of the last
//     occupied finite bucket.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 || len(h.bounds) == 0 || h.counts == nil || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.total)
	cum := uint64(0)
	for i, bound := range h.bounds {
		prev := float64(cum)
		cum += h.counts[i]
		if h.counts[i] == 0 {
			// An empty bucket holds no rank: skipping it keeps q=0 (and any
			// rank tied to a cumulative edge) off the upper edge of a bucket
			// nothing landed in.
			continue
		}
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if rank <= prev {
				return lo // rank at the bucket's lower cumulative edge
			}
			return lo + (bound-lo)*(rank-prev)/float64(h.counts[i])
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// QuantileOr is Quantile with the empty-histogram NaN sentinel replaced
// by fallback — the form JSON-writing callers want, since NaN does not
// marshal.
func (h *Histogram) QuantileOr(q, fallback float64) float64 {
	if v := h.Quantile(q); !math.IsNaN(v) {
		return v
	}
	return fallback
}

// write renders the histogram series under its (possibly labeled) name.
func (h *Histogram) write(b *strings.Builder, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fam, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		fam, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		labels += ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		if h.counts != nil {
			cum += h.counts[i]
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", fam, labels, formatValue(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, labels, h.total)
	fmt.Fprintf(b, "%s_sum%s %s\n", fam, labelBlock(name), formatValue(h.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", fam, labelBlock(name), h.total)
}

// labelBlock returns the "{...}" suffix of name, or "".
func labelBlock(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}
