package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"consumelocal/internal/loadgen"
)

// runLoadtest hammers a real consumelocald over HTTP with a concurrent
// client fleet — ingest producers (some silent, exercising the
// watermark=wall fallback), snapshot followers and spooled-trace
// submitters in a fixed 4:3:1 mix — and logs the
// latency/throughput/error summary; -o also writes the JSON report to a
// file. With -addr it drives an already-running daemon; without, it
// spawns -daemon itself on an ephemeral port and tears it down after
// the run. -chaos arms the fault injection: the spawned daemon is
// SIGKILLed and restarted mid-run on the same -data-dir, and the report
// gains recovery timings and a post-crash ledger cross-check (see
// docs/DURABILITY.md). See docs/LOADTEST.md for the workload and report
// schema.
func runLoadtest(args []string, out io.Writer) error {
	def := loadgen.DefaultConfig()
	fs := flag.NewFlagSet("consumelocal loadtest", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "", "base URL of a running consumelocald (e.g. http://localhost:8377); empty spawns -daemon")
	daemonPath := fs.String("daemon", "", "consumelocald binary to spawn when -addr is empty")
	clients := fs.Int("clients", def.Clients, "total concurrent clients across the workload mix")
	duration := fs.Duration("duration", def.Duration, "how long to drive load")
	rate := fs.Float64("rate", def.Rate, "aggregate offered op rate per second, 0 for unpaced")
	burst := fs.Int("burst", def.Burst, "token-bucket burst capacity")
	scale := fs.Float64("scale", def.Scale, "live-trace scale for the shared workload")
	chaos := fs.Bool("chaos", false, "SIGKILL and restart the spawned daemon mid-run (requires spawn mode; implies a durable -data-dir)")
	chaosKills := fs.Int("chaos-kills", 1, "kill/restart cycles in -chaos mode, spread evenly through the run (live ingest jobs must survive every one)")
	dataDir := fs.String("data-dir", "", "-data-dir for a spawned daemon (empty with -chaos uses a temp dir)")
	output := fs.String("o", def.Output, "write the JSON report here (empty skips the file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadtest: unexpected arguments %q", fs.Args())
	}

	cfg := loadgen.Config{
		Addr:       *addr,
		DaemonPath: *daemonPath,
		Clients:    *clients,
		Duration:   *duration,
		Rate:       *rate,
		Burst:      *burst,
		Scale:      *scale,
		Chaos:      *chaos,
		ChaosKills: *chaosKills,
		DataDir:    *dataDir,
		Output:     *output,
		Out:        out,
	}

	// Ctrl-C ends the run early but still writes the report for what
	// ran; a second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	_, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("loadtest: %w", err)
	}
	fmt.Fprintf(out, "loadtest: completed in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
