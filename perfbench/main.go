// Command perfbench is the repository's benchmark: it runs one workload
// (replay, ingest or follow) against the code at hand for a fixed time,
// checks every result against the sim.Run oracle, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds this
// package and consumelocald first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// CATALOGUE.md lists every metric with its unit, its layer and the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// metricDef is one declared metric. The lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sessions_per_s", "sessions/s"},
	{"ack_p50_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"result_ms", "ms"},
	{"cpu_us_per_session", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"trace.scan_ns_per_session", "ns"},
	{"trace.read_csv_ns_per_session", "ns"},
	{"trace.append_csv_ns_per_session", "ns"},
	{"consumelocal.push_ns_per_session", "ns"},
	{"consumelocal.blocked_s", "s"},
	{"consumelocal.queue_peak", "count"},
	{"consumelocal.sink_emit_s", "s"},
	{"engine.self_s", "s"},
	{"engine.settle_s", "s"},
	{"engine.windows", "count"},
	{"engine.window_p50_ms", "ms"},
	{"engine.window_p99_ms", "ms"},
	{"matching.calls", "count"},
	{"matching.peers_per_call", "peers"},
	{"matching.peers_max", "peers"},
	{"matching.solo_share", "ratio"},
	{"matching.busy_s", "s"},
	{"matching.ns_per_peer", "ns"},
	{"joblog.append_p50_ms", "ms"},
	{"joblog.append_p99_ms", "ms"},
	{"joblog.sync_p50_ms", "ms"},
	{"joblog.fsyncs_per_batch", "ratio"},
	{"joblog.compactions", "count"},
	{"joblog.reclaimed_mb", "MiB"},
	{"joblog.size_mb", "MiB"},
	{"consumelocald.create_ms", "ms"},
	{"consumelocald.finish_ms", "ms"},
	{"consumelocald.energy_ms", "ms"},
	{"consumelocald.snapshot_emit_mean_ms", "ms"},
	{"consumelocald.cpu_s", "s"},
	{"consumelocald.start_ms", "ms"},
	{"bench.late_share", "ratio"},
	{"bench.cpu_s", "s"},
	{"bench.trace_overhead", "ratio"},
}

// runBudget bounds a whole run, set-up and teardown included, so a hung
// daemon fails the run instead of outliving the 180 s a run may take.
const runBudget = 160 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not decide it.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	daemon   string // consumelocald binary
	workdir  string // scratch space inside the checkout
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and prints the human-readable
// report lines ahead of the result. A result that differs from the
// oracle is an error, not a report: the run exits non-zero.
type report struct {
	w       io.Writer
	metrics map[string]metric
	res     result
	spans   []span
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}, res: result{Correct: true}}
}

// set records a metric and prints it with a note (sample count, source).
func (r *report) set(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "metric %-36s %16.6f %-10s %s\n", name, v, unit, note)
}

// info prints a report-only line: audit, environment, extra figures.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// ops adds operations to the attempted/failed ledger.
func (r *report) ops(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// finish builds the result line from the declared metric list, failing
// if the workload left one unset.
func (r *report) finish(defs []metricDef) (result, error) {
	out := r.res
	out.Metrics = map[string]metric{}
	var missing []string
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if m.Unit != d.unit {
			return out, fmt.Errorf("metric %s has unit %s, declared %s", d.name, m.Unit, d.unit)
		}
		out.Metrics[d.name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("workload did not measure %v", missing)
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation attempted")
	}
	return out, nil
}

var workloads = map[string]func(context.Context, config, *report) error{
	"replay": runReplay,
	"ingest": runIngest,
	"follow": runFollow,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: replay, ingest or follow")
	fs.Int64Var(&c.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&c.seconds, "seconds", 20, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&c.daemon, "daemon", "", "consumelocald binary to run the daemon workloads against")
	fs.StringVar(&c.workdir, "workdir", "", "scratch directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body, ok := workloads[c.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want replay, ingest or follow)\n", c.workload)
		return 2
	case c.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case c.daemon == "" || c.workdir == "":
		fmt.Fprintln(stderr, "perfbench: -daemon and -workdir are required (run.sh sets them)")
		return 2
	}
	c.traced = *traceFlag == 1
	if _, err := os.Stat(c.daemon); err != nil {
		fmt.Fprintf(stderr, "perfbench: daemon binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: workdir: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	rep := newReport(stdout)
	rep.info("# perfbench workload=%s seed=%d seconds=%d trace=%d", c.workload, c.seed, c.seconds, *traceFlag)
	if err := body(ctx, c, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
		if err := writeSpans(c, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res, err := rep.finish(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// writeSpans dumps the traced run's spans, one JSON object a line.
func writeSpans(c config, spans []span) error {
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", c.workdir, c.workload, c.seed)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	return f.Close()
}
