package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"consumelocal"
	"consumelocal/internal/matching"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// replayInputs is the set-up state of the replay workload.
type replayInputs struct {
	tr    *trace.Trace
	csv   []byte
	want  *sim.Result
	audit matchStats
}

func setupReplay(ctx context.Context, seed int64) (*replayInputs, error) {
	tr, err := catchUpTrace(replayScale, seed)
	if err != nil {
		return nil, err
	}
	csv, err := renderCSV(tr)
	if err != nil {
		return nil, err
	}
	want, pol, err := oracle(tr)
	if err != nil {
		return nil, err
	}
	in := &replayInputs{tr: tr, csv: csv, want: want, audit: pol.stats()}
	// The warm-up pass fills caches and pools; it is checked like any other.
	if _, err := in.pass(ctx, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

// windowClock is the benchmark's side of an in-process replay: it hands
// the CSV source's sessions to the engine and notes when the session
// that closes each window went in, and how long the engine's feed took
// to come back for the next one (the window mark's ack). When timed, it
// also records every Next call.
type windowClock struct {
	src    consumelocal.Source
	window int64
	next   int64
	// closes[k] is when window k's closing session was handed over. It
	// is sized up front: the feed writes it, and the consumer reads an
	// element only after receiving that window's snapshot.
	closes  []time.Time
	closed  int
	pending time.Time
	acks    []time.Duration

	timed bool
	reads []interval
	base  time.Time
}

func newWindowClock(src consumelocal.Source, window, horizon int64, timed bool, base time.Time) *windowClock {
	return &windowClock{
		src: src, window: window, next: window,
		closes: make([]time.Time, horizon/window+2),
		timed:  timed, base: base,
	}
}

func (w *windowClock) Meta() trace.Meta { return w.src.Meta() }

func (w *windowClock) Next() (trace.Session, error) {
	if !w.pending.IsZero() {
		w.acks = append(w.acks, time.Since(w.pending))
		w.pending = time.Time{}
	}
	var t0 time.Time
	if w.timed {
		t0 = time.Now()
	}
	s, err := w.src.Next()
	now := time.Now()
	if w.timed {
		w.reads = append(w.reads, interval{int64(t0.Sub(w.base)), int64(now.Sub(w.base))})
	}
	if err == nil && s.StartSec >= w.next {
		for s.StartSec >= w.next && w.closed < len(w.closes) {
			w.closes[w.closed] = now
			w.closed++
			w.next += w.window
		}
		w.pending = now
	}
	return s, err
}

// spanSink records when the pipeline's sink stage took up each
// snapshot; the stage ends when the consumer receives it. at is sized
// up front and indexed by window.
type spanSink struct {
	base time.Time
	at   []int64
}

func (s *spanSink) Snapshot(snap consumelocal.StreamSnapshot) error {
	if snap.Index < len(s.at) {
		s.at[snap.Index] = int64(time.Since(s.base))
	}
	return nil
}

func (s *spanSink) Finish(*consumelocal.SimResult, error) error { return nil }

// replayTracer holds the traced pass's wrappers and accumulators.
type replayTracer struct {
	policy *countingPolicy
	stats  *obs.ReplayMetrics
	readNs int64
	reads  int64
	selfs  []float64
	passes int
	spans  []span
}

type passOut struct {
	wall        time.Duration
	acks, fresh []time.Duration
}

// pass replays the trace once and checks the result against the oracle.
// With a tracer it wraps the source, the matching policy and the sinks.
func (in *replayInputs) pass(ctx context.Context, tr *replayTracer) (passOut, error) {
	src, err := consumelocal.CSVSource(bytes.NewReader(in.csv))
	if err != nil {
		return passOut{}, err
	}
	base := time.Now()
	wc := newWindowClock(src, replayWindow, in.tr.HorizonSec, tr != nil, base)
	opts := []consumelocal.Option{consumelocal.WithWindow(replayWindow)}
	var sink *spanSink
	if tr != nil {
		wc.reads = make([]interval, 0, len(in.tr.Sessions)+1)
		cfg := sim.DefaultConfig(1.0)
		cfg.Policy = tr.policy
		sink = &spanSink{base: base, at: make([]int64, len(wc.closes))}
		opts = append(opts, consumelocal.WithSimConfig(cfg), consumelocal.WithReplayMetrics(tr.stats),
			consumelocal.WithSink(sink))
	}
	job, err := consumelocal.Replay(ctx, wc, opts...)
	if err != nil {
		return passOut{}, err
	}
	var out passOut
	recvAt := make([]int64, len(wc.closes))
	for snap := range job.Snapshots() {
		now := time.Now()
		if snap.Index < len(recvAt) {
			recvAt[snap.Index] = int64(now.Sub(base))
		}
		if !snap.Final && snap.Index < len(wc.closes) && !wc.closes[snap.Index].IsZero() {
			out.fresh = append(out.fresh, now.Sub(wc.closes[snap.Index]))
		}
	}
	res, err := job.Result()
	out.wall = time.Since(base)
	if err != nil {
		return out, err
	}
	if err := compareResults(res, in.want); err != nil {
		return out, err
	}
	out.acks = wc.acks
	if tr != nil {
		tr.passes++
		op := int64(tr.passes)
		root := interval{0, int64(out.wall)}
		for _, r := range wc.reads {
			tr.readNs += r.End - r.Start
		}
		tr.reads += int64(len(wc.reads))
		children := wc.reads
		b := base.UnixNano()
		tr.spans = append(tr.spans, span{Name: "replay.pass", Op: op, Start: b, End: b + root.End})
		for k, at := range sink.at {
			if at == 0 || recvAt[k] < at {
				continue
			}
			children = append(children, interval{at, recvAt[k]})
			tr.spans = append(tr.spans, span{Name: "sink.emit", Op: op, Parent: op, Start: b + at, End: b + recvAt[k]})
		}
		tr.selfs = append(tr.selfs, selfTime(root, children).Seconds())
	}
	return out, nil
}

// replayLoop runs passes back to back for d and gathers them.
func (in *replayInputs) replayLoop(ctx context.Context, d time.Duration, tr *replayTracer) ([]passOut, error) {
	var outs []passOut
	start := time.Now()
	for len(outs) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := in.pass(ctx, tr)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func runReplay(ctx context.Context, c config, rep *report) error {
	environment(rep, c, "none (in-process)")
	var in *replayInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = setupReplay(ctx, c.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sessions := len(in.tr.Sessions)
	rep.info("audit sessions=%d swarms=%d match_calls=%d peers_per_call=%.3f peers_max=%d solo_share=%.4f windows_per_pass=%d csv_bytes=%d",
		sessions, len(in.want.Swarms), in.audit.Calls, in.audit.peersPerCall(), in.audit.MaxPeers,
		in.audit.soloShare(), in.tr.HorizonSec/replayWindow, len(in.csv))

	if c.traced {
		return traceReplay(ctx, c, rep, in)
	}
	// The peak covers the timed passes, with the set-ups' garbage gone.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return err
	}
	cpu0, steal := selfCPU(), startSteal()
	outs, err := in.replayLoop(ctx, c.duration(), nil)
	if err != nil {
		return err
	}
	cpu := selfCPU() - cpu0
	rep.info("env steal_share=%.3f over the timed passes", steal.share())
	var walls []float64
	var acks, fresh []time.Duration
	for _, o := range outs {
		walls = append(walls, o.wall.Seconds())
		acks = append(acks, o.acks...)
		fresh = append(fresh, o.fresh...)
	}
	passes := len(outs)
	rep.ops(int64(passes), 0)
	med := median(walls)
	rep.set("sessions_per_s", "sessions/s", float64(sessions)/med, fmt.Sprintf("median of %d passes", passes))
	setTails(rep, "ack", [][]time.Duration{acks}, "window-mark acks")
	setTails(rep, "freshness", [][]time.Duration{fresh}, "windows")
	rep.set("result_ms", "ms", med*1000, fmt.Sprintf("median pass time, n=%d", passes))
	rep.set("cpu_us_per_session", "us", float64(cpu.Microseconds())/float64(sessions*passes), "benchmark process, timed passes")
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MiB", rss, "VmHWM of the benchmark process")
	rep.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.info("failed_share 0 ratio (%d of %d passes failed)", 0, passes)
	return nil
}

// traceReplay is the traced replay run: half the time untraced for the
// overhead baseline, half traced, then the function passes and a short
// durable daemon pass over the same trace.
func traceReplay(ctx context.Context, c config, rep *report, in *replayInputs) error {
	cpu0 := selfCPU()
	half := c.duration() / 2
	plain, err := in.replayLoop(ctx, half, nil)
	if err != nil {
		return err
	}
	tr := &replayTracer{
		policy: &countingPolicy{inner: matching.LocalityFirst{}, timed: true},
		stats:  obs.NewReplayMetrics(obs.NewRegistry()),
	}
	traced, err := in.replayLoop(ctx, half, tr)
	if err != nil {
		return err
	}
	sessions := float64(len(in.tr.Sessions))
	rate := func(outs []passOut) float64 {
		var w []float64
		for _, o := range outs {
			w = append(w, o.wall.Seconds())
		}
		return sessions / median(w)
	}
	rep.ops(int64(len(plain)+len(traced)), 0)
	p := float64(tr.passes)
	rep.set("trace.scan_ns_per_session", "ns", ratio(float64(tr.readNs), float64(tr.reads)), "wrapped Source.Next over CSVSource")
	setMatching(rep, tr.policy.stats(), p, "traced replay passes")
	rep.set("engine.self_s", "s", median(tr.selfs), "median per pass: wall minus source and sink spans")
	rep.set("engine.settle_s", "s", tr.stats.SettleSeconds.Value()/p, "settle counter per pass")
	rep.set("consumelocal.sink_emit_s", "s", tr.stats.SinkEmitSeconds.Value()/p, "sink-emit counter per pass")
	rep.set("bench.trace_overhead", "ratio", rate(plain)/rate(traced)-1, fmt.Sprintf("sessions_per_s untraced %.0f vs traced %.0f", rate(plain), rate(traced)))
	rep.spans = append(rep.spans, tr.spans...)

	reqs := batchRequests(in.tr, ingestBatch)
	if err := functionPasses(ctx, c, rep, in.tr, reqs, replayWindow, 0, false); err != nil {
		return err
	}
	if err := daemonPass(ctx, c, rep, in.tr, reqs); err != nil {
		return err
	}
	rep.set("bench.cpu_s", "s", (selfCPU() - cpu0).Seconds(), "benchmark process CPU over the traced run")
	return nil
}

// setTails sets <prefix>_p50_ms over all samples and reports
// <prefix>_p99_ms, the median of the blocks' p99 (blockTail). The p99 is
// printed but not part of the result: on a virtual machine whose
// hypervisor steals CPU time it does not repeat within a bound.
func setTails(rep *report, prefix string, series [][]time.Duration, what string) {
	p50 := percentile(flatten(series), 0.5)
	rep.set(prefix+"_p50_ms", "ms", p50.ms(), fmt.Sprintf("p50 of n=%d %s", p50.N, what))
	v, blocks, n := blockTail(series, 0.99)
	rep.info("tail   %-36s %16.6f %-10s median of %d blocks' p%.4g, n=%d each (reported, not gated)",
		prefix+"_p99_ms", v, "ms", blocks, supportedQuantile(n, 0.99)*100, n)
}

// setMatching sets the matching layer's metrics, per pass.
func setMatching(rep *report, m matchStats, passes float64, where string) {
	rep.set("matching.calls", "count", float64(m.Calls)/passes, "MatchInto calls per pass, "+where)
	rep.set("matching.peers_per_call", "peers", m.peersPerCall(), where)
	rep.set("matching.peers_max", "peers", float64(m.MaxPeers), where)
	rep.set("matching.solo_share", "ratio", m.soloShare(), "share of calls with one peer, "+where)
	rep.set("matching.busy_s", "s", m.Busy.Seconds()/passes, "time inside MatchInto per pass, "+where)
	rep.set("matching.ns_per_peer", "ns", ratio(float64(m.Busy), float64(m.Peers)), where)
}
