// Streaming: replay a live synthetic workload through the unified
// Replay pipeline with windowed energy reporting and a metrics sink.
//
// The example streams the synthetic generator straight into the
// out-of-core engine — no trace file, no materialised session list;
// sessions are drawn in start order as the replay consumes them, the
// way a live ingest endpoint would feed the consumelocald service.
// Hourly snapshots report cumulative offload and energy savings while
// the replay runs, a Prometheus-style metrics sink tracks the same
// state for scraping, and cancelling the job (ctrl-C) unwinds the whole
// pipeline.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"consumelocal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A two-day workload, streamed live: the generator is a Source, so
	// the full trace never exists in memory or on disk.
	traceCfg := consumelocal.DefaultTraceConfig(0.002)
	traceCfg.Days = 2
	src, err := consumelocal.GeneratorSource(traceCfg)
	if err != nil {
		return err
	}

	// ctrl-C cancels the job; the replay returns context.Canceled and
	// every pipeline goroutine exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	metrics := consumelocal.NewMetricsSink()
	job, err := consumelocal.Replay(ctx, src,
		consumelocal.WithUploadRatio(1.0),
		consumelocal.WithWindow(4*3600),
		consumelocal.WithSink(metrics))
	if err != nil {
		return err
	}

	meta := job.Meta()
	fmt.Printf("replaying %q live from the synthetic generator\n\n", meta.Name)
	models := consumelocal.BothEnergyModels()
	fmt.Printf("%8s %10s %9s %9s", "window", "sessions", "active", "offload")
	for _, p := range models {
		fmt.Printf(" %10s", p.Name)
	}
	fmt.Println()

	for snap := range job.Snapshots() {
		label := fmt.Sprintf("%dh", snap.ToSec/3600)
		if snap.Final {
			label = "final"
		}
		fmt.Printf("%8s %10d %9d %8.1f%%", label,
			snap.SessionsSeen, snap.ActiveMembers, 100*snap.Cumulative.Offload())
		for _, p := range models {
			fmt.Printf(" %9.1f%%", 100*consumelocal.EvaluateEnergy(snap.Cumulative, p).Savings)
		}
		fmt.Println()
	}

	res, err := job.Result()
	if err != nil {
		return err
	}
	fmt.Printf("\nreplay complete: %d swarms, %.2f TB watched, %.1f%% served by peers\n",
		len(res.Swarms), res.Total.TotalBits/8/1e12, 100*res.Total.Offload())
	for _, p := range models {
		report := consumelocal.EvaluateEnergy(res.Total, p)
		fmt.Printf("energy savings (%s): %.1f%%\n", p.Name, 100*report.Savings)
	}

	// The metrics sink saw the same replay; dump the gauges a scraper
	// would read from a live /metrics endpoint.
	fmt.Println("\nprometheus exposition:")
	return metrics.WritePrometheus(os.Stdout)
}
