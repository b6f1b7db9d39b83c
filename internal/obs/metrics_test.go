package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "total requests").Add(3)
	r.Counter(`reqs_by_path_total{path="/tasks"}`, "requests by path").Inc()
	r.Counter(`reqs_by_path_total{path="/report"}`, "").Add(2)
	r.Gauge("eligible", "live |ELIGIBLE|").Set(7)
	r.Gauge("eligible", "").Add(-2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total total requests",
		"# TYPE reqs_total counter",
		"reqs_total 3",
		"# TYPE reqs_by_path_total counter",
		`reqs_by_path_total{path="/report"} 2`,
		`reqs_by_path_total{path="/tasks"} 1`,
		"# TYPE eligible gauge",
		"eligible 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, not per series.
	if n := strings.Count(out, "# TYPE reqs_by_path_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x")
	c2 := r.Counter("x_total", "x")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x_total", "x").Inc()
				r.Gauge("y", "y").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c1.Value(); got != 8000 {
		t.Fatalf("counter = %g, want 8000", got)
	}
	if got := r.Gauge("y", "").Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "")
	r.Gauge("m", "")
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	buf := make([]byte, 1<<12)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Fatalf("body missing counter:\n%s", buf[:n])
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("lat", "", []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram quantile = %v, want NaN sentinel", got)
	}
	// 4 observations in (0,1], 4 in (1,2]: ranks interpolate linearly
	// within each bucket.
	for i := 0; i < 4; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	cases := []struct{ q, want float64 }{
		{0.25, 0.5}, // rank 2 of 4 in the [0,1] bucket
		{0.5, 1},    // rank 4: exactly the first bound
		{0.75, 1.5}, // rank 6 of 8: midway through (1,2]
		{1, 2},      // rank 8: top of the second bucket
		{-1, 0},     // clamped below
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// An observation beyond every bound lands in +Inf; high quantiles
	// clamp to the largest finite bound rather than extrapolating.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("Quantile(1) with +Inf mass = %v, want 8", got)
	}
}

// TestHistogramQuantileEdgeCases pins the documented behavior for the
// degenerate inputs that used to be bucket-edge/NaN-prone: empty
// histograms, out-of-range and NaN q, and ranks landing on (or before)
// empty leading buckets.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	mk := func(obs ...float64) *Histogram {
		h := NewRegistry().Histogram("lat", "", []float64{1, 2, 4, 8})
		for _, v := range obs {
			h.Observe(v)
		}
		return h
	}
	nan := math.NaN()
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64 // NaN means "want the NaN sentinel"
	}{
		{"empty q=0.5", mk(), 0.5, nan},
		{"empty q=0", mk(), 0, nan},
		{"empty q>1", mk(), 2, nan},
		{"no buckets", NewRegistry().Histogram("b", "", nil), 0.5, nan},
		{"NaN q", mk(1.5), nan, nan},
		// q outside [0,1] clamps instead of extrapolating.
		{"q<0 clamps to min edge", mk(1.5, 1.5), -3, 1},
		{"q>1 clamps to max", mk(1.5, 1.5), 7, 2},
		// All mass past an empty leading bucket: q=0 must report the lower
		// edge of the first OCCUPIED bucket (1), not the upper edge of the
		// empty first bucket.
		{"q=0 skips empty leading bucket", mk(1.5, 1.7, 1.9), 0, 1},
		{"q=0 with occupied first bucket", mk(0.5, 1.5), 0, 0},
		{"q=1 interpolates to top", mk(0.5, 1.5), 1, 2},
	}
	for _, c := range cases {
		got := c.h.Quantile(c.q)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", c.name, c.q, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	// QuantileOr is the JSON-safe form: the sentinel becomes the fallback,
	// real values pass through.
	if got := mk().QuantileOr(0.5, 0); got != 0 {
		t.Errorf("empty QuantileOr = %v, want fallback 0", got)
	}
	if got := mk(0.5, 1.5).QuantileOr(1, -1); got != 2 {
		t.Errorf("QuantileOr passthrough = %v, want 2", got)
	}
}
