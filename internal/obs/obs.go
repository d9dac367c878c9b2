// Package obs is the repo's dependency-free observability kit: a
// zero-allocation metrics registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text exposition, plus the
// shared instrumentation sets the replay pipeline and the consumelocald
// daemon register on it.
//
// The design follows the repo's scratch-buffer discipline: hot-path
// updates (Counter.Inc, Gauge.Set, Histogram.Observe, resolved vec
// children) are plain atomic operations that allocate nothing — pinned
// by TestObsCounterAllocs — while everything that needs memory (metric
// registration, vec child creation, exposition rendering) happens at
// setup or scrape time. Scrapes render into a reusable buffer owned by
// the registry, so a daemon scraped every few seconds reaches a steady
// state where even exposition allocates nothing.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metric type names as they appear on TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// maxVecLabels bounds a vec's label arity. Two covers every series in
// the repo (route×code); the fixed-size array key is what keeps child
// lookup allocation-free.
const maxVecLabels = 2

// metric is one registered family: its metadata plus an appender that
// renders the current sample values. Appenders run under the registry
// lock at scrape time and may allocate (sorting vec children, growing
// the buffer) — never on the update path.
type metric struct {
	name string
	help string
	typ  string
	// collect appends the family's sample lines (no HELP/TYPE) to buf.
	collect func(buf []byte) []byte
}

// Registry holds a fixed set of metric families registered at setup
// time and renders them in registration order. Registration panics on
// invalid or duplicate names — both are programmer errors a daemon
// should fail loudly on at startup, not at scrape time.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
	buf     []byte // reusable exposition buffer, guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name, help, typ string, collect func([]byte) []byte) {
	if err := CheckName(name); err != nil {
		panic("obs: " + err.Error())
	}
	if help == "" {
		panic("obs: metric " + name + " registered without help text")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.metrics = append(r.metrics, metric{name: name, help: help, typ: typ, collect: collect})
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, TypeCounter, func(buf []byte) []byte {
		return AppendSample(buf, name, "", c.Value())
	})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, TypeGauge, func(buf []byte) []byte {
		return AppendSample(buf, name, "", g.Value())
	})
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time, under the registry lock — fn must not scrape the same registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, func(buf []byte) []byte {
		return AppendSample(buf, name, "", fn())
	})
}

// CounterFunc registers a counter whose value is computed by fn at
// scrape time. fn must be monotonically non-decreasing for the series
// to honour counter semantics — typically a sum over per-object
// cumulative totals plus a retired-objects accumulator.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, func(buf []byte) []byte {
		return AppendSample(buf, name, "", fn())
	})
}

// Info registers a constant gauge with value 1 carrying its payload in
// labels — the conventional shape for build/version metadata.
func (r *Registry) Info(name, help string, labels ...[2]string) {
	rendered := renderLabels(labels)
	r.register(name, help, TypeGauge, func(buf []byte) []byte {
		return AppendSample(buf, name, rendered, 1)
	})
}

// Histogram registers a fixed-bucket histogram of the given upper
// bounds (ascending, +Inf implicit). Latency histograms should use
// LatencyBuckets unless the workload says otherwise.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	r.register(name, help, TypeHistogram, h.collect(name))
	return h
}

// NewHistogram returns an unregistered fixed-bucket histogram of the
// given upper bounds (ascending, +Inf implicit), for a tally read in
// process (Count, Sum, Quantile) rather than scraped. It panics on an
// empty or non-ascending bucket list, a programmer error.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets not strictly ascending")
		}
	}
	return &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// CounterVec registers a counter family with one or two fixed label
// names. Children are created on first use; resolving an existing child
// is an allocation-free map lookup, so hot paths may call With per
// event — though resolving once at setup is cheaper still.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 || len(labels) > maxVecLabels {
		panic(fmt.Sprintf("obs: counter vec %s needs 1..%d labels, got %d", name, maxVecLabels, len(labels)))
	}
	v := &CounterVec{name: name, labels: labels, children: make(map[[maxVecLabels]string]*vecChild)}
	r.register(name, help, TypeCounter, v.collectInto)
	return v
}

// WritePrometheus renders every registered family in registration order
// in Prometheus text exposition format (version 0.0.4). The rendering
// buffer is reused across scrapes.
func (r *Registry) WritePrometheus(w interface{ Write([]byte) (int, error) }) error {
	r.mu.Lock()
	buf := r.buf[:0]
	for i := range r.metrics {
		m := &r.metrics[i]
		buf = AppendHelp(buf, m.name, m.help)
		buf = AppendType(buf, m.name, m.typ)
		buf = m.collect(buf)
	}
	r.buf = buf
	_, err := w.Write(buf)
	r.mu.Unlock()
	return err
}

// Handler returns the registry as a /metrics HTTP handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// atomicFloat is a float64 updated with atomic bit operations: Set is a
// store, Add a CAS loop — both allocation-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing float64. Integer counts and
// accumulated seconds share the one type; exposition renders whole
// numbers without a fraction.
type Counter struct{ v atomicFloat }

// Inc adds one.
//
//consumelocal:hotpath
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter by delta, which must be non-negative.
//
//consumelocal:hotpath
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.v.add(delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a float64 that may go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
//
//consumelocal:hotpath
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add adjusts the gauge by delta (negative deltas allowed).
//
//consumelocal:hotpath
func (g *Gauge) Add(delta float64) { g.v.add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (peak queue depth, widest window).
//
//consumelocal:hotpath
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.v.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.v.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a fixed-bucket histogram: cumulative bucket counts, a
// total count and a sum, all updated atomically. Observe is wait-free
// modulo the sum's CAS and allocates nothing.
type Histogram struct {
	upper  []float64       // ascending upper bounds; +Inf is counts[len(upper)]
	counts []atomic.Uint64 // len(upper)+1
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
//
//consumelocal:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile of the observed distribution by
// linear interpolation inside the bucket where the cumulative count
// crosses q×total — the same estimator Prometheus's histogram_quantile
// applies server-side, available here for in-process reports (the
// loadtest harness) and test assertions. The first bucket interpolates
// from zero, so the estimate assumes non-negative observations (true of
// every latency series in the repo); a quantile landing in the +Inf
// bucket returns the largest finite bound, the histogram's resolution
// ceiling. q is clamped to [0, 1]; with no observations the result is
// NaN. Allocation-free and safe under concurrent Observe — concurrent
// updates can skew the estimate by at most the in-flight observations.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.upper) {
			// The +Inf bucket has no finite width to interpolate in.
			return h.upper[len(h.upper)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.upper[i-1]
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lower + (h.upper[i]-lower)*frac
	}
	// Counts grew between the two passes; the quantile is in the last
	// occupied bucket's upper reaches.
	return h.upper[len(h.upper)-1]
}

// collect returns the appender rendering _bucket/_sum/_count lines,
// with the per-line prefixes precomputed so steady-state scrapes only
// append into the registry's reusable buffer.
func (h *Histogram) collect(name string) func([]byte) []byte {
	bucketPrefix := name + `_bucket{le="`
	sumName, countName := name+"_sum", name+"_count"
	return func(buf []byte) []byte {
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i].Load()
			buf = append(buf, bucketPrefix...)
			if i < len(h.upper) {
				buf = strconv.AppendFloat(buf, h.upper[i], 'g', -1, 64)
			} else {
				buf = append(buf, "+Inf"...)
			}
			buf = append(buf, `"} `...)
			buf = strconv.AppendUint(buf, cum, 10)
			buf = append(buf, '\n')
		}
		buf = AppendSample(buf, sumName, "", h.sum.load())
		buf = AppendSample(buf, countName, "", float64(h.count.Load()))
		return buf
	}
}

// LatencyBuckets is the default latency bucket ladder, in seconds: 1 ms
// to 60 s, covering an HTTP handler and a multi-second window settle on
// one scale.
var LatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// vecChild is one labelled counter of a CounterVec, carrying its
// pre-rendered label string so scrapes don't re-escape per sample.
type vecChild struct {
	Counter
	rendered string
	key      [maxVecLabels]string
}

// CounterVec is a counter family over one or two fixed label names.
type CounterVec struct {
	name   string
	labels []string

	mu       sync.RWMutex
	children map[[maxVecLabels]string]*vecChild
	ordered  []*vecChild // sorted by key for deterministic exposition
}

// With1 resolves the child for a one-label vec. The fast path (child
// exists) is a read-locked map lookup with no allocation.
func (v *CounterVec) With1(value string) *Counter {
	if len(v.labels) != 1 {
		panic("obs: With1 on vec " + v.name + " with " + strconv.Itoa(len(v.labels)) + " labels")
	}
	return v.child([maxVecLabels]string{value})
}

// With2 resolves the child for a two-label vec.
func (v *CounterVec) With2(v1, v2 string) *Counter {
	if len(v.labels) != 2 {
		panic("obs: With2 on vec " + v.name + " with " + strconv.Itoa(len(v.labels)) + " labels")
	}
	return v.child([maxVecLabels]string{v1, v2})
}

func (v *CounterVec) child(key [maxVecLabels]string) *Counter {
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return &c.Counter
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c != nil {
		return &c.Counter
	}
	labels := make([][2]string, len(v.labels))
	for i, name := range v.labels {
		labels[i] = [2]string{name, key[i]}
	}
	c = &vecChild{rendered: renderLabels(labels), key: key}
	v.children[key] = c
	// Insert sorted so exposition is deterministic without re-sorting
	// (child creation is rare; scrapes are not).
	at := sort.Search(len(v.ordered), func(i int) bool {
		o := v.ordered[i]
		if o.key[0] != key[0] {
			return o.key[0] > key[0]
		}
		return o.key[1] > key[1]
	})
	v.ordered = append(v.ordered, nil)
	copy(v.ordered[at+1:], v.ordered[at:])
	v.ordered[at] = c
	return &c.Counter
}

func (v *CounterVec) collectInto(buf []byte) []byte {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, c := range v.ordered {
		buf = AppendSample(buf, v.name, c.rendered, c.Value())
	}
	return buf
}

// CheckName validates a metric or label name against the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// renderLabels renders a label set as `{k="v",...}`, escaping values.
func renderLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	out := []byte{'{'}
	for i, kv := range labels {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, kv[0]...)
		out = append(out, '=', '"')
		out = appendEscaped(out, kv[1])
		out = append(out, '"')
	}
	return string(append(out, '}'))
}

// appendEscaped escapes a label value per the exposition format.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// AppendHelp appends a `# HELP` line. Newlines in help are escaped.
func AppendHelp(buf []byte, name, help string) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	for i := 0; i < len(help); i++ {
		switch c := help[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '\n')
}

// AppendType appends a `# TYPE` line.
func AppendType(buf []byte, name, typ string) []byte {
	buf = append(buf, "# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, typ...)
	return append(buf, '\n')
}

// AppendSample appends one sample line: name, pre-rendered labels
// (`{k="v"}` or empty) and the value. Shared by the registry and by
// MetricsSink's reusable-buffer exposition, so the format lives in one
// place.
func AppendSample(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = appendValue(buf, v)
	return append(buf, '\n')
}

// appendValue renders a sample value: whole numbers without a mantissa,
// everything else in Go's shortest 'g' form, NaN/Inf spelled as the
// exposition format expects.
func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
