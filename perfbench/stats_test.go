package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
	}{
		{1000, 0.99, 0.99},
		{2000, 0.99, 0.99},
		{500, 0.99, 0.98},
		{100, 0.99, 0.9},
		{20, 0.5, 0.5},
		{19, 0.99, 0.5},
		{5, 0.5, 0.5},
	} {
		if got := supportedQuantile(c.n, c.want); math.Abs(got-c.q) > 1e-12 {
			t.Errorf("supportedQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.q)
		}
	}
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(1000-i) * time.Millisecond // 1..1000 ms, reversed
	}
	if got := percentile(samples, 0.99); got.Value != 990*time.Millisecond || got.N != 1000 {
		t.Errorf("p99 of 1..1000ms = %v (n=%d), want 990ms", got.Value, got.N)
	}
	if got := percentile(samples, 0.5); got.Value != 500*time.Millisecond {
		t.Errorf("p50 of 1..1000ms = %v, want 500ms", got.Value)
	}
	// With 500 samples only the 98th percentile keeps ten beyond it.
	if got := percentile(samples[:500], 0.99); got.Q != 0.98 || got.Value != 490*time.Millisecond {
		t.Errorf("p99 of 500 samples = p%g %v, want p98 490ms", got.Q*100, got.Value)
	}
}

func TestFailedSampleIsOverAnyLimit(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Millisecond
	}
	for i := 0; i < 20; i++ {
		samples[i] = failedSample
	}
	p := percentile(samples, 0.9)
	if p.ms() != math.MaxFloat64 {
		t.Fatalf("p90 with 20%% failures = %v ms, want the over-limit value", p.ms())
	}
	if got := percentile(samples, 0.5).ms(); got != 1 {
		t.Fatalf("p50 = %v ms, want 1", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 40}, {10, 30}, // overlap: [10,40) covers 30
		{35, 38},   // inside the previous union
		{90, 120},  // sticks out of the parent: 10 inside
		{-5, 5},    // starts before the parent: 5 inside
		{200, 300}, // outside entirely
		{50, 50},   // empty
	}
	if got := selfTime(parent, children); got != 55 {
		t.Fatalf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {10, 20}}); got != 0 {
		t.Fatalf("fully covered selfTime = %d, want 0", got)
	}
}

func TestClosersMatchWindowsToClosingRequests(t *testing.T) {
	// Window 100, horizon 600: windows 0..5.
	reqs := []request{
		{maxStart: 50, watermark: -1},   // 0: no window ends
		{maxStart: 120, watermark: -1},  // 1: a session at 120 closes window 0
		{maxStart: 150, watermark: 350}, // 2: watermark 350 closes windows 1 and 2
		{maxStart: 380, watermark: 399}, // 3: nothing new
		{maxStart: 420, watermark: 900}, // 4: watermark clamps to 600: closes 3, 4, 5
	}
	got := closers(reqs, 100, 600)
	want := []int{1, 2, 2, 4, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("closers = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("closers = %v, want %v", got, want)
		}
	}
	// Windows no request closes are left to the final flush.
	if got := closers(reqs[:2], 100, 600); got[0] != 1 || got[1] != -1 {
		t.Fatalf("closers of a prefix = %v, want [1 -1 ...]", got)
	}
}

func TestWindowAndBatchRequests(t *testing.T) {
	tr := &trace.Trace{Name: "t", HorizonSec: 400, NumUsers: 10, NumContent: 2, NumISPs: 1}
	for _, start := range []int64{0, 10, 150, 160, 170, 390} {
		tr.Sessions = append(tr.Sessions, trace.Session{UserID: 1, StartSec: start, DurationSec: 5, Bitrate: trace.BitrateSD})
	}
	win := windowRequests(tr, 100)
	if len(win) != 4 {
		t.Fatalf("%d window requests, want 4", len(win))
	}
	counts := []int{2, 3, 0, 1}
	for k, r := range win {
		if r.last-r.first != counts[k] || r.watermark != int64(k+1)*100 {
			t.Errorf("window %d: %d sessions, watermark %d; want %d, %d", k, r.last-r.first, r.watermark, counts[k], (k+1)*100)
		}
	}
	bat := batchRequests(tr, 4)
	if len(bat) != 2 || bat[0].watermark != 170 || bat[1].watermark != 400 || bat[0].maxStart != 160 {
		t.Fatalf("batches = %+v", bat)
	}
	ss, err := trace.ReadSessionsCSV(strings.NewReader(string(bat[0].body)))
	if err != nil || len(ss) != 4 || ss[3] != tr.Sessions[3] {
		t.Fatalf("batch body parses to %v, %v", ss, err)
	}
}

func TestCompareResultsIsBitForBit(t *testing.T) {
	want := &sim.Result{Swarms: []sim.SwarmStats{
		{Key: swarm.Key{Content: 1}, Sessions: 3, Tally: sim.Tally{TotalBits: 10, ServerBits: 4, LayerBits: [energy.NumLayers]float64{6}}},
		{Key: swarm.Key{Content: 2}, Sessions: 1, Tally: sim.Tally{TotalBits: 5, ServerBits: 5}},
	}}
	for _, s := range want.Swarms {
		want.Total.Add(s.Tally)
	}
	clone := func() *sim.Result {
		c := *want
		c.Swarms = append([]sim.SwarmStats(nil), want.Swarms...)
		return &c
	}
	if err := compareResults(clone(), want); err != nil {
		t.Fatalf("equal results: %v", err)
	}
	off := clone()
	off.Swarms[1].Tally.ServerBits = math.Nextafter(5, 6)
	if err := compareResults(off, want); !errors.Is(err, errMismatch) {
		t.Fatalf("one-ulp swarm difference: err = %v, want a mismatch", err)
	}
	short := clone()
	short.Swarms = short.Swarms[:1]
	if err := compareResults(short, want); !errors.Is(err, errMismatch) {
		t.Fatalf("missing swarm: err = %v, want a mismatch", err)
	}
	if err := compareTotals(2, want.Total, want); err != nil {
		t.Fatalf("equal totals: %v", err)
	}
	total := want.Total
	total.LayerBits[0] = math.Nextafter(total.LayerBits[0], 0)
	if err := compareTotals(2, total, want); !errors.Is(err, errMismatch) {
		t.Fatalf("one-ulp total difference: err = %v, want a mismatch", err)
	}
	if err := compareTotals(3, want.Total, want); !errors.Is(err, errMismatch) {
		t.Fatalf("swarm count difference: err = %v, want a mismatch", err)
	}
}

func TestParseMetricsSumsLabelledSeries(t *testing.T) {
	const text = `# HELP x_total a counter
# TYPE x_total counter
x_total{kind="a"} 2
x_total{kind="b"} 3.5
h_seconds_bucket{le="+Inf"} 4
h_seconds_sum 0.25
h_seconds_count 4
g 7
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["x_total"] != 5.5 || m["h_seconds_sum"] != 0.25 || m["h_seconds_count"] != 4 || m["g"] != 7 {
		t.Fatalf("parsed %v", m)
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the
// command prints, BENCHMARK.json and the catalogue in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	catalogue, err := os.ReadFile("CATALOGUE.md")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if !strings.Contains(string(catalogue), "`"+d.name+"`") {
				t.Errorf("CATALOGUE.md does not describe %s", d.name)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestBlockTailIsTheMedianOfBlockPercentiles(t *testing.T) {
	// Two producers, 1500 samples each: three blocks of 1000, each taking
	// a third of both series. A burst in the last third moves one block.
	series := make([][]time.Duration, 2)
	for p := range series {
		for i := 0; i < 1500; i++ {
			d := time.Millisecond
			if i >= 1000 {
				d = time.Second
			}
			series[p] = append(series[p], d)
		}
	}
	v, blocks, n := blockTail(series, 0.99)
	if blocks != 3 || n != 1000 || v != 1 {
		t.Fatalf("blockTail = %vms over %d blocks of %d, want 1ms over 3 of 1000", v, blocks, n)
	}
	if pooled := percentile(flatten(series), 0.99).ms(); pooled != 1000 {
		t.Fatalf("pooled p99 = %vms, want 1000", pooled)
	}
	// Under blockSize samples there is one block: the pooled percentile.
	if v, blocks, _ := blockTail([][]time.Duration{series[0][:900]}, 0.99); blocks != 1 || v != 1 {
		t.Fatalf("small blockTail = %vms over %d blocks", v, blocks)
	}
}
