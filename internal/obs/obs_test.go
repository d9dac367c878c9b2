package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events.")
	g := r.Gauge("test_depth", "Depth.")
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})

	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %g, want 4", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Fatalf("SetMax lowered the gauge to %g", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %g, want 9", got)
	}

	for _, v := range []float64{0.05, 0.5, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-3.05) > 1e-12 {
		t.Fatalf("histogram sum = %g, want 3.05", h.Sum())
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for series, want := range map[string]float64{
		"test_events_total":                      3.5,
		"test_depth":                             9,
		`test_latency_seconds_bucket{le="0.1"}`:  1,
		`test_latency_seconds_bucket{le="1"}`:    3,
		`test_latency_seconds_bucket{le="+Inf"}`: 4,
		"test_latency_seconds_count":             4,
	} {
		got, ok := exp.Value(series)
		if !ok {
			t.Fatalf("missing series %s in:\n%s", series, buf.String())
		}
		if got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

func TestCounterPanicsOnDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	v.With2("/v1/jobs", "202").Add(3)
	v.With2("/v1/jobs", "400").Inc()
	v.With2("/healthz", "200").Inc()
	// Resolving twice yields the same child.
	v.With2("/v1/jobs", "202").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	exp, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if got, _ := exp.Value(`test_requests_total{route="/v1/jobs",code="202"}`); got != 4 {
		t.Fatalf("child = %g, want 4\n%s", got, out)
	}
	// Exposition order is sorted by label values, deterministically.
	first := strings.Index(out, `route="/healthz"`)
	second := strings.Index(out, `route="/v1/jobs",code="202"`)
	third := strings.Index(out, `route="/v1/jobs",code="400"`)
	if !(first >= 0 && first < second && second < third) {
		t.Fatalf("vec children out of order:\n%s", out)
	}
}

func TestGaugeFuncAndInfo(t *testing.T) {
	r := NewRegistry()
	val := 41.0
	r.GaugeFunc("test_dynamic", "Dynamic.", func() float64 { return val })
	r.CounterFunc("test_running_total", "Running.", func() float64 { return 12 })
	r.Info("test_build_info", "Build.", [2]string{"go_version", "go1.24"})
	val = 42

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := exp.Value("test_dynamic"); got != 42 {
		t.Fatalf("gauge func = %g, want 42", got)
	}
	if got, _ := exp.Value("test_running_total"); got != 12 {
		t.Fatalf("counter func = %g, want 12", got)
	}
	if got, ok := exp.Value(`test_build_info{go_version="go1.24"}`); !ok || got != 1 {
		t.Fatalf("info metric = %g (present %v), want 1", got, ok)
	}
	if exp.Types["test_running_total"] != TypeCounter {
		t.Fatalf("counter func TYPE = %q", exp.Types["test_running_total"])
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	for name, reg := range map[string]func(r *Registry){
		"duplicate":    func(r *Registry) { r.Counter("dup_total", "A."); r.Counter("dup_total", "B.") },
		"bad name":     func(r *Registry) { r.Counter("1leading_digit", "A.") },
		"empty help":   func(r *Registry) { r.Counter("fine_total", "") },
		"no buckets":   func(r *Registry) { r.Histogram("h", "H.", nil) },
		"descending":   func(r *Registry) { r.Histogram("h", "H.", []float64{1, 0.5}) },
		"vec 0 labels": func(r *Registry) { r.CounterVec("v_total", "V.") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			reg(NewRegistry())
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_escaped_total", "Escaped.", "path")
	v.With1(`a"b\c` + "\n").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `test_escaped_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped sample missing; got:\n%s", buf.String())
	}
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("escaped exposition does not parse: %v", err)
	}
}

func TestParseExpositionRejectsDrift(t *testing.T) {
	for name, text := range map[string]string{
		"sample without metadata": "orphan_total 1\n",
		"type only":               "# TYPE t_total counter\nt_total 1\n",
		"help only":               "# HELP t_total T.\nt_total 1\n",
		"bad value":               "# HELP t_total T.\n# TYPE t_total counter\nt_total x\n",
		"duplicate series":        "# HELP t_total T.\n# TYPE t_total counter\nt_total 1\nt_total 2\n",
		"unknown type":            "# HELP t_total T.\n# TYPE t_total widget\nt_total 1\n",
		"bare histogram sample":   "# HELP h H.\n# TYPE h histogram\nh 1\n",
		"unterminated labels":     "# HELP t_total T.\n# TYPE t_total counter\nt_total{a=\"b\" 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted invalid exposition", name)
		}
	}
}

// TestObsCounterAllocs pins the hot-path update operations at zero
// allocations per op: counters, gauges, histogram observations and
// resolved vec children are what pipeline stages and HTTP handlers
// touch per event, and they must stay free under the same discipline as
// the tracker and scanner guards.
func TestObsCounterAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_events_total", "A.")
	g := r.Gauge("alloc_depth", "A.")
	h := r.Histogram("alloc_latency_seconds", "A.", LatencyBuckets)
	v := r.CounterVec("alloc_requests_total", "A.", "route", "code")
	v.With2("/v1/jobs", "202").Inc() // create the child outside the measurement

	for name, fn := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Counter.Add":       func() { c.Add(0.5) },
		"Gauge.Set":         func() { g.Set(3) },
		"Gauge.Add":         func() { g.Add(-1) },
		"Gauge.SetMax":      func() { g.SetMax(1e9) },
		"Histogram.Observe": func() { h.Observe(0.042) },
		"Vec.With2 hit":     func() { v.With2("/v1/jobs", "202").Inc() },
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestScrapeSteadyStateAllocs checks that repeated scrapes reuse the
// registry's buffer: after a warm-up scrape, rendering a static metric
// set stays allocation-free.
func TestScrapeSteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steady_total", "S.")
	r.Gauge("steady_depth", "S.").Set(4)
	h := r.Histogram("steady_seconds", "S.", LatencyBuckets)
	h.Observe(0.2)
	var sink countWriter
	_ = r.WritePrometheus(&sink) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		_ = r.WritePrometheus(&sink)
	})
	if allocs != 0 {
		t.Errorf("steady-state scrape allocates %.1f allocs/op, want 0", allocs)
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func TestConcurrentUpdatesRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "R.")
	h := r.Histogram("race_seconds", "R.", []float64{1})
	v := r.CounterVec("race_vec_total", "R.", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				c.Inc()
				h.Observe(float64(n))
				v.With1("abcdefgh"[i : i+1]).Inc()
			}
		}(i)
	}
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		buf.Reset()
		_ = r.WritePrometheus(&buf)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %g, want 8000", got)
	}
}

func TestReplayMetricsRegister(t *testing.T) {
	r := NewRegistry()
	m := NewReplayMetrics(r)
	m.SourceSessions.Add(10)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := exp.Value("consumelocal_replay_source_sessions_total"); got != 10 {
		t.Fatalf("sessions = %g, want 10", got)
	}
}

// TestHistogramQuantile pins the bucket-interpolation estimator: exact
// interpolation inside a uniformly filled bucket, clamping at the
// edges, the +Inf ceiling, and the empty-histogram NaN.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "test histogram", []float64{1, 2, 4})

	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile = %g, want NaN", h.Quantile(0.5))
	}

	// 100 observations spread uniformly through (1, 2]: every quantile
	// interpolates linearly inside that one bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1 + (float64(i)+0.5)/100)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 1.5},
		{0.95, 1.95},
		{0.99, 1.99},
		{1, 2},
		{0, 1}, // rank 0 resolves to the occupied bucket's lower bound
		{-1, 1},
		{2, 2},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}

	// Fill the lowest bucket too: the median must move below 1 and
	// interpolate from zero (non-negative observations assumed).
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.25); got <= 0 || got > 1 {
		t.Fatalf("Quantile(0.25) = %g, want inside (0, 1]", got)
	}
	if got := h.Quantile(0.75); got <= 1 || got > 2 {
		t.Fatalf("Quantile(0.75) = %g, want inside (1, 2]", got)
	}

	// An observation beyond every bound lands in +Inf; the top quantile
	// reports the histogram's resolution ceiling, not infinity.
	h.Observe(1000)
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) with +Inf occupancy = %g, want the last finite bound 4", got)
	}
	if math.IsNaN(h.Quantile(math.NaN())) != true {
		t.Fatal("Quantile(NaN) should be NaN")
	}
}

// TestHistogramQuantileAllocs pins Quantile as allocation-free: the
// loadtest report calls it while client pools are still recording.
func TestHistogramQuantileAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("qa_seconds", "test histogram", LatencyBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 997)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.99)
	}); allocs != 0 {
		t.Fatalf("Quantile allocates %v per call, want 0", allocs)
	}
}
