package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"consumelocal"
	"consumelocal/internal/joblog"
	"consumelocal/internal/matching"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// passBudget bounds each function pass of a traced run.
const passBudget = 3 * time.Second

// functionPasses measures the trace, joblog, consumelocal and engine
// layers by calling their functions on the workload's own requests,
// paced like the workload (interval 0 is unpaced). They measure those
// functions on this data, not the daemon's wiring. inProcessLayers says
// the matching, engine self/settle and sink-emit figures come from the
// live pass here, because the workload itself runs in a daemon.
func functionPasses(ctx context.Context, c config, rep *report, t *trace.Trace, reqs []request, window int64, interval time.Duration, inProcessLayers bool) error {
	if interval > 0 {
		reqs = reqs[:min(len(reqs), int(passBudget/interval))]
	}
	if err := tracePass(rep, t, reqs, inProcessLayers); err != nil {
		return err
	}
	if err := joblogPass(c, rep, reqs); err != nil {
		return err
	}
	return livePass(ctx, rep, t, reqs, window, interval, inProcessLayers)
}

// tracePass parses every request body with ReadSessionsCSV and renders
// it back with AppendSessionCSV, checking the round trip; with scan it
// also streams the same sessions through CSVSource.
func tracePass(rep *report, t *trace.Trace, reqs []request, scan bool) error {
	var readNs, appendNs time.Duration
	sessions := 0
	buf := make([]byte, 0, 64<<10)
	for _, r := range reqs {
		t0 := time.Now()
		ss, err := trace.ReadSessionsCSV(bytes.NewReader(r.body))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("trace pass: %w", err)
		}
		buf = buf[:0]
		for _, s := range ss {
			buf = trace.AppendSessionCSV(buf, s)
		}
		appendNs += time.Since(t1)
		readNs += t1.Sub(t0)
		if !bytes.Equal(buf, r.body) {
			return fmt.Errorf("trace pass: CSV round trip of sessions %d..%d differs", r.first, r.last)
		}
		sessions += len(ss)
	}
	n := float64(sessions)
	rep.set("trace.read_csv_ns_per_session", "ns", ratio(float64(readNs), n), fmt.Sprintf("ReadSessionsCSV over %d requests", len(reqs)))
	rep.set("trace.append_csv_ns_per_session", "ns", ratio(float64(appendNs), n), "AppendSessionCSV on the same requests")
	if !scan {
		return nil
	}
	csv, err := renderCSV(prefixTrace(t, reqs[len(reqs)-1].last))
	if err != nil {
		return err
	}
	src, err := consumelocal.CSVSource(bytes.NewReader(csv))
	if err != nil {
		return err
	}
	scanned := 0
	t0 := time.Now()
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("scan pass: %w", err)
		}
		scanned++
	}
	rep.set("trace.scan_ns_per_session", "ns", ratio(float64(time.Since(t0)), float64(scanned)), "CSVSource.Next over the requests' sessions")
	return nil
}

// joblogPass appends each request as the daemon journals an ingest
// batch, to a scratch journal on the workdir's filesystem.
func joblogPass(c config, rep *report, reqs []request) error {
	dir := filepath.Join(c.workdir, "joblog-pass")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	jl, _, err := joblog.Open(dir)
	if err != nil {
		return err
	}
	var syncs, appends []time.Duration
	jl.OnFsync = func(s float64) { syncs = append(syncs, time.Duration(s*float64(time.Second))) }
	start := time.Now()
	for _, r := range reqs {
		if len(appends) > 0 && time.Since(start) > passBudget {
			break
		}
		rec := joblog.Record{Type: joblog.TypeWatermark, Job: 1, WatermarkSec: max(r.watermark, 0)}
		if r.last > r.first {
			rec = joblog.Record{Type: joblog.TypeBatch, Job: 1, Sessions: int64(r.last - r.first),
				CSV: string(r.body), WatermarkSec: max(r.watermark, 0)}
		}
		t0 := time.Now()
		if err := jl.AppendBatch([]joblog.Record{rec}); err != nil {
			jl.Close()
			return err
		}
		appends = append(appends, time.Since(t0))
	}
	if err := jl.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	a50, a99, s50 := percentile(appends, 0.5), percentile(appends, 0.99), percentile(syncs, 0.5)
	rep.set("joblog.append_p50_ms", "ms", a50.ms(), fmt.Sprintf("n=%d AppendBatch calls", a50.N))
	rep.set("joblog.append_p99_ms", "ms", a99.ms(), fmt.Sprintf("p%g of n=%d", a99.Q*100, a99.N))
	rep.set("joblog.sync_p50_ms", "ms", s50.ms(), fmt.Sprintf("n=%d fsyncs via OnFsync", s50.N))
	return nil
}

// liveRun is one live-pass job's measurements.
type liveRun struct {
	pushNs    time.Duration
	pushed    int64
	blocked   time.Duration
	peak      int
	windows   int
	latencies []time.Duration
	self      float64
}

// livePass pushes the requests through an IngestSource into a streaming
// Replay, as the daemon does without HTTP, timing PushContext and the
// wait from each window's closing Advance to its snapshot. Short
// schedules repeat until the pass budget is spent.
func livePass(ctx context.Context, rep *report, t *trace.Trace, reqs []request, window int64, interval time.Duration, inProcessLayers bool) error {
	want, _, err := oracle(prefixTrace(t, reqs[len(reqs)-1].last))
	if err != nil {
		return err
	}
	pol := &countingPolicy{inner: matching.LocalityFirst{}, timed: true}
	stats := obs.NewReplayMetrics(obs.NewRegistry())
	var runs []liveRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < passBudget {
		r, err := liveJob(ctx, t, reqs, window, interval, pol, stats, want)
		if err != nil {
			return fmt.Errorf("live pass: %w", err)
		}
		runs = append(runs, r)
	}
	var push, blocked time.Duration
	var pushed int64
	var peak, windows int
	var lat []time.Duration
	var selfs []float64
	for _, r := range runs {
		push += r.pushNs
		pushed += r.pushed
		blocked += r.blocked
		peak = max(peak, r.peak)
		windows += r.windows
		lat = append(lat, r.latencies...)
		selfs = append(selfs, r.self)
	}
	jobs := float64(len(runs))
	where := fmt.Sprintf("live pass, %d jobs", len(runs))
	rep.set("consumelocal.push_ns_per_session", "ns", ratio(float64(push), float64(pushed)), where)
	rep.set("consumelocal.blocked_s", "s", blocked.Seconds()/jobs, "IngestSource.Blocked per job, "+where)
	rep.set("consumelocal.queue_peak", "count", float64(peak), "IngestSource.QueuePeak, "+where)
	rep.set("engine.windows", "count", float64(windows)/jobs, "windows per job, "+where)
	w50, w99 := percentile(lat, 0.5), percentile(lat, 0.99)
	rep.set("engine.window_p50_ms", "ms", w50.ms(), fmt.Sprintf("Advance to snapshot, n=%d", w50.N))
	rep.set("engine.window_p99_ms", "ms", w99.ms(), fmt.Sprintf("p%.2f of n=%d", w99.Q*100, w99.N))
	if inProcessLayers {
		setMatching(rep, pol.stats(), jobs, where)
		rep.set("engine.self_s", "s", median(selfs), "median per job: wall minus source and sink time, "+where)
		rep.set("engine.settle_s", "s", stats.SettleSeconds.Value()/jobs, "settle counter per job, "+where)
		rep.set("consumelocal.sink_emit_s", "s", stats.SinkEmitSeconds.Value()/jobs, "sink-emit counter per job, "+where)
	}
	return nil
}

// liveJob runs one live-pass job and checks its result.
func liveJob(ctx context.Context, t *trace.Trace, reqs []request, window int64, interval time.Duration,
	pol matching.Policy, stats *obs.ReplayMetrics, want *sim.Result) (liveRun, error) {
	src, err := consumelocal.NewIngestSource(t.Meta(), 0)
	if err != nil {
		return liveRun{}, err
	}
	cfg := sim.DefaultConfig(1.0)
	cfg.Policy = pol
	read0, emit0 := stats.SourceReadSeconds.Value(), stats.SinkEmitSeconds.Value()
	start := time.Now()
	job, err := consumelocal.Replay(ctx, src, consumelocal.WithWindow(window),
		consumelocal.WithSimConfig(cfg), consumelocal.WithReplayMetrics(stats))
	if err != nil {
		return liveRun{}, err
	}
	closeBy := closers(reqs, window, t.HorizonSec)
	recvAt := make([]time.Time, len(closeBy)+2)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for snap := range job.Snapshots() {
			if snap.Index < len(recvAt) {
				recvAt[snap.Index] = time.Now()
			}
		}
	}()
	var run liveRun
	doneAt := make([]time.Time, len(reqs))
	perr := func() error {
		for i, r := range reqs {
			if interval > 0 {
				time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			}
			for _, s := range t.Sessions[r.first:r.last] {
				t0 := time.Now()
				if err := src.PushContext(ctx, s); err != nil {
					return err
				}
				run.pushNs += time.Since(t0)
			}
			if r.watermark >= 0 {
				if err := src.AdvanceContext(ctx, r.watermark); err != nil {
					return err
				}
			}
			doneAt[i] = time.Now()
		}
		return src.Close()
	}()
	if perr != nil {
		job.Cancel()
	}
	<-consumed
	res, err := job.Result()
	wall := time.Since(start)
	if perr != nil {
		return run, perr
	}
	if err != nil {
		return run, err
	}
	if err := compareResults(res, want); err != nil {
		return run, err
	}
	run.pushed = src.Pushed()
	run.blocked = src.Blocked()
	run.peak = src.QueuePeak()
	for k, i := range closeBy {
		if i < 0 || recvAt[k].IsZero() {
			continue
		}
		run.windows++
		run.latencies = append(run.latencies, max(recvAt[k].Sub(doneAt[i]), 0))
	}
	busy := stats.SourceReadSeconds.Value() - read0 + stats.SinkEmitSeconds.Value() - emit0
	run.self = wall.Seconds() - busy
	return run, nil
}
