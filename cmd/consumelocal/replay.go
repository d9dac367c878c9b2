package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"consumelocal"
	"consumelocal/internal/energy"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
)

// runReplay implements the `replay` subcommand on the unified Replay
// pipeline: pick a source (-trace file, stdin, -generate for the live
// synthetic generator, or -live for the evening-TV broadcast schedule
// replayed through a live ingest stream) and print live windowed
// reports followed by the same summary the simulate subcommand
// produces. -ndjson swaps the table for the NDJSON snapshot
// sink.
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace CSV path (default: read stdin)")
	generate := fs.Float64("generate", 0, "stream the synthetic generator live at this scale instead of reading a trace")
	liveScale := fs.Float64("live", 0, "replay the evening-TV live broadcast schedule at this audience scale, fed through a live ingest stream with hourly watermarks")
	genDays := fs.Int("days", 7, "generator horizon in days (with -generate)")
	genSeed := fs.Int64("seed", 1, "generator seed (with -generate or -live)")
	window := fs.Int64("window", 3600, "reporting window in seconds")
	simCfg := simFlags(fs)
	ndjson := fs.Bool("ndjson", false, "emit snapshots as NDJSON instead of a table")
	stats := fs.Bool("stats", false, "print a per-stage instrumentation summary at exit (stage timings, windows; with -live also peak queue depth, backpressure stalls and watermark lag); with -ndjson it goes to stderr to keep the stream clean")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("replay: unexpected arguments %q", fs.Args())
	}
	var generateSet, liveSet, daysSet, seedSet bool
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "generate":
			generateSet = true
		case "live":
			liveSet = true
		case "days":
			daysSet = true
		case "seed":
			seedSet = true
		}
	})
	// An explicit non-positive -generate or -live must not silently fall
	// through to the stdin/trace path (DefaultTraceConfig would also
	// treat 0 as full paper scale, which no typo should launch).
	if generateSet && *generate <= 0 {
		return fmt.Errorf("replay: -generate must be a positive scale, got %g", *generate)
	}
	if liveSet && *liveScale <= 0 {
		return fmt.Errorf("replay: -live must be a positive scale, got %g", *liveScale)
	}
	sources := 0
	for _, set := range []bool{*generate > 0, *liveScale > 0, *tracePath != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return fmt.Errorf("replay: -generate, -live and -trace are mutually exclusive")
	}
	if daysSet && !generateSet {
		return fmt.Errorf("replay: -days only applies with -generate")
	}
	if seedSet && !generateSet && !liveSet {
		return fmt.Errorf("replay: -seed only applies with -generate or -live")
	}

	var src consumelocal.Source
	var err error
	// ing keeps the live stream's handle when -live is set, so -stats can
	// report the queue and backpressure figures at exit.
	var ing *consumelocal.IngestSource
	switch {
	case *generate > 0:
		gcfg := consumelocal.DefaultTraceConfig(*generate)
		gcfg.Days = *genDays
		gcfg.Seed = *genSeed
		src, err = consumelocal.GeneratorSource(gcfg)
		if err != nil {
			return err
		}
	case *liveScale > 0:
		// The live demo drives the ingest path end to end: the evening-TV
		// schedule is generated up front, but the replay consumes it the
		// way a broadcast happens — pushed hour by hour into an
		// IngestSource, the watermark advanced each simulated hour, the
		// stream sealed when the evening ends.
		lcfg := consumelocal.DefaultLiveTraceConfig(*liveScale)
		lcfg.Seed = *genSeed
		tr, err := consumelocal.GenerateLiveTrace(lcfg)
		if err != nil {
			return err
		}
		ing, err = consumelocal.NewIngestSource(tr.Meta(), 0)
		if err != nil {
			return err
		}
		go func() {
			watermark := int64(0)
			for rest := tr.Sessions; len(rest) > 0; {
				for next := watermark + 3600; next <= rest[0].StartSec; next += 3600 {
					if ing.Advance(next) != nil {
						return
					}
					watermark = next
				}
				n := 1
				for n < len(rest) && rest[n].StartSec < watermark+3600 {
					n++
				}
				if _, err := ing.PushBatch(context.Background(), rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			_ = ing.Advance(tr.HorizonSec)
			_ = ing.Close()
		}()
		src = ing
	default:
		in := io.Reader(os.Stdin)
		if *tracePath != "" {
			f, err := os.Open(*tracePath)
			if err != nil {
				return fmt.Errorf("open trace: %w", err)
			}
			defer f.Close()
			in = f
		}
		src, err = consumelocal.CSVSource(in)
		if err != nil {
			return err
		}
	}

	cfg, workers := simCfg()
	opts := []consumelocal.Option{
		consumelocal.WithSimConfig(cfg),
		consumelocal.WithWindow(*window),
		consumelocal.WithWorkers(workers),
	}
	if *ndjson {
		opts = append(opts, consumelocal.WithSink(consumelocal.NDJSONSink(out)))
	}
	var stages *obs.ReplayMetrics
	if *stats {
		stages = obs.NewReplayMetrics(consumelocal.NewMetrics())
		opts = append(opts, consumelocal.WithReplayMetrics(stages))
	}

	job, err := consumelocal.Replay(context.Background(), src, opts...)
	if err != nil {
		return err
	}

	meta := job.Meta()
	models := energy.BothModels()
	if !*ndjson {
		fmt.Fprintf(out, "replaying %q: %d-day horizon, window %ds, %d workers\n\n",
			meta.Name, meta.Days(), *window, workers)
		fmt.Fprintf(out, "%8s %10s %9s %8s %8s", "window", "sessions", "active", "traffic", "offload")
		for _, p := range models {
			fmt.Fprintf(out, " %10s", p.Name)
		}
		fmt.Fprintln(out)
	}

	var seen int64
	for snap := range job.Snapshots() {
		seen = snap.SessionsSeen
		if *ndjson {
			continue // the NDJSON sink already wrote the line
		}
		label := fmt.Sprintf("%dh", snap.ToSec/3600)
		if snap.Final {
			label = "final"
		}
		fmt.Fprintf(out, "%8s %10d %9d %5.2f TB %7.1f%%",
			label, snap.SessionsSeen, snap.ActiveMembers,
			snap.Cumulative.TotalBits/8/1e12, 100*snap.Cumulative.Offload())
		for _, p := range models {
			fmt.Fprintf(out, " %9.1f%%", 100*sim.Evaluate(snap.Cumulative, p).Savings)
		}
		fmt.Fprintln(out)
	}

	res, err := job.Result()
	if err != nil {
		return err
	}
	if !*ndjson {
		fmt.Fprintf(out, "\n%d sessions across %d swarms; %.1f%% of traffic served by peers (policy %s)\n",
			seen, len(res.Swarms), 100*res.Total.Offload(), res.PolicyName)
		for _, p := range models {
			report := sim.Evaluate(res.Total, p)
			fmt.Fprintf(out, "energy savings (%s): %.1f%%\n", p.Name, 100*report.Savings)
		}
	}
	if stages != nil {
		w := out
		if *ndjson {
			w = os.Stderr
		}
		printStats(w, stages, ing)
	}
	return nil
}

// printStats renders the -stats summary: where the replay's wall-clock
// went, stage by stage, and — for a live ingest replay — how hard the
// backpressure worked.
func printStats(w io.Writer, m *obs.ReplayMetrics, ing *consumelocal.IngestSource) {
	fmt.Fprintf(w, "\nper-stage instrumentation:\n")
	fmt.Fprintf(w, "  source read  %9.3fs  (%.0f sessions)\n", m.SourceReadSeconds.Value(), m.SourceSessions.Value())
	fmt.Fprintf(w, "  settle       %9.3fs  (summed across workers)\n", m.SettleSeconds.Value())
	fmt.Fprintf(w, "  sink emit    %9.3fs  (%.0f windows)\n", m.SinkEmitSeconds.Value(), m.WindowsSettled.Value())
	if ing != nil {
		fmt.Fprintf(w, "  ingest       peak queue %d events, producer blocked %.3fs, final watermark lag %ds\n",
			ing.QueuePeak(), ing.Blocked().Seconds(), ing.WatermarkLag())
	}
}
