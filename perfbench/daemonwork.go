package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"consumelocal/internal/trace"
)

// served is a set-up daemon workload: its inputs and the daemon.
type served struct {
	traces   []*trace.Trace // ingest: one per producer
	reqs     [][]request
	evenings []evening // follow
	d        *daemonProc
	dir      string
}

func (s *served) close() error {
	err := s.d.stop()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// setupServed builds a daemon workload setupRepeats times, timing each,
// and keeps the last one.
func setupServed(ctx context.Context, c config, build func() (*served, error)) (*served, []float64, error) {
	var s *served
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return s, setups, nil
}

// freshDaemon spawns a daemon over an empty data dir (durable) or none.
func freshDaemon(ctx context.Context, c config, durable bool) (*daemonProc, string, error) {
	dir := ""
	if durable {
		dir = filepath.Join(c.workdir, "data")
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
	}
	d, err := startDaemon(ctx, c.daemon, dir)
	return d, dir, err
}

func runIngest(ctx context.Context, c config, rep *report) error {
	environment(rep, c, "durable (-data-dir, default flags)")
	s, setups, err := setupServed(ctx, c, func() (*served, error) {
		s := &served{}
		var err error
		for p := int64(0); p < 2; p++ {
			t, err := catchUpTrace(ingestScale, c.seed*2+p)
			if err != nil {
				return nil, err
			}
			s.traces = append(s.traces, t)
			s.reqs = append(s.reqs, batchRequests(t, ingestBatch))
		}
		s.d, s.dir, err = freshDaemon(ctx, c, true)
		return s, err
	})
	if err != nil {
		return err
	}
	defer s.close()
	if !c.traced {
		out, err := ingestLoad(ctx, s.d, s.traces, s.reqs, ingestRate, c.duration(), true, false)
		if err != nil {
			return err
		}
		auditLoad(rep, out)
		if err := out.generatorCheck(); err != nil {
			return err
		}
		return setEndToEnd(rep, out, s.d, setups)
	}
	return traceServed(ctx, c, rep, s, func(d time.Duration, traced bool) (*loadOut, error) {
		return ingestLoad(ctx, s.d, s.traces, s.reqs, ingestRate, d, true, traced)
	}, "ack_p50_ms", func(o *loadOut) float64 { return percentile(flatten(o.ack), 0.5).ms() },
		s.traces[0], s.reqs[0], replayWindow, 2*time.Second/ingestRate)
}

func runFollow(ctx context.Context, c config, rep *report) error {
	environment(rep, c, "in-memory (default flags)")
	s, setups, err := setupServed(ctx, c, func() (*served, error) {
		s := &served{}
		for i := int64(0); i < followEvenings; i++ {
			t, err := eveningTrace(c.seed*followEvenings + i)
			if err != nil {
				return nil, err
			}
			want, pol, err := oracle(t)
			if err != nil {
				return nil, err
			}
			s.evenings = append(s.evenings, evening{t: t, reqs: windowRequests(t, followWindow), want: want, audit: pol.stats()})
		}
		var err error
		s.d, s.dir, err = freshDaemon(ctx, c, false)
		return s, err
	})
	if err != nil {
		return err
	}
	defer s.close()
	load := func(d time.Duration, traced bool) (*loadOut, error) {
		return followLoad(ctx, s.d, s.evenings, followRate, d, traced)
	}
	if !c.traced {
		out, err := load(c.duration(), false)
		if err != nil {
			return err
		}
		auditLoad(rep, out)
		if err := out.generatorCheck(); err != nil {
			return err
		}
		return setEndToEnd(rep, out, s.d, setups)
	}
	first := s.evenings[0]
	return traceServed(ctx, c, rep, s, load, "freshness_p50_ms",
		func(o *loadOut) float64 { return percentile(o.fresh, 0.5).ms() },
		first.t, first.reqs, followWindow, time.Second/followRate)
}

// traceServed is the traced run of a daemon workload: half the time
// untraced for the overhead baseline, half traced, then the function
// passes over one job's requests (reqs of t).
func traceServed(ctx context.Context, c config, rep *report, s *served, load func(time.Duration, bool) (*loadOut, error),
	headline string, value func(*loadOut) float64, t *trace.Trace, reqs []request, window int64, interval time.Duration) error {
	cpu0 := selfCPU()
	half := c.duration() / 2
	plain, err := load(half, false)
	if err != nil {
		return err
	}
	// The traced half gets a fresh daemon, so its journal holds nothing
	// of the untraced half's finished jobs for compaction to reclaim.
	if err := s.close(); err != nil {
		return err
	}
	if s.d, s.dir, err = freshDaemon(ctx, c, s.dir != ""); err != nil {
		return err
	}
	traced, err := load(half, true)
	if err != nil {
		return err
	}
	for _, o := range []*loadOut{plain, traced} {
		rep.ops(o.attempted, o.failed)
		if err := o.generatorCheck(); err != nil {
			return err
		}
	}
	auditLoad(rep, traced)
	setDaemonLayers(rep, traced, s.d)
	rep.set("bench.trace_overhead", "ratio", value(traced)/value(plain)-1,
		fmt.Sprintf("%s untraced %.4f vs traced %.4f", headline, value(plain), value(traced)))
	if err := functionPasses(ctx, c, rep, t, reqs, window, interval, true); err != nil {
		return err
	}
	rep.set("bench.cpu_s", "s", (selfCPU() - cpu0).Seconds(), "benchmark process CPU over the traced run")
	return nil
}

// daemonPass measures the daemon layers on the replay workload's trace:
// one producer streams it closed loop, like the replay, into a durable
// daemon for the pass budget, long enough for an online compaction.
func daemonPass(ctx context.Context, c config, rep *report, t *trace.Trace, reqs []request) error {
	d, dir, err := freshDaemon(ctx, c, true)
	if err != nil {
		return err
	}
	s := &served{d: d, dir: dir}
	defer s.close()
	out, err := ingestLoad(ctx, d, []*trace.Trace{t}, [][]request{reqs}, 0, passBudget, false, true)
	if err != nil {
		return err
	}
	rep.ops(out.attempted, out.failed)
	setDaemonLayers(rep, out, d)
	return out.generatorCheck()
}
