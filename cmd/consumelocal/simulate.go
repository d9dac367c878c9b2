package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"consumelocal"
	"consumelocal/internal/carbon"
	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// runSimulate implements the `simulate` subcommand: replay a
// user-provided trace (CSV from -trace, or stdin) on the streaming
// engine in one window spanning the horizon, and report system and
// per-ISP savings under both energy models. The full result can be
// archived as JSON with -json for downstream analysis.
func runSimulate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace CSV path (default: read stdin)")
	simCfg := simFlags(fs)
	jsonPath := fs.String("json", "", "write the full result as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := loadTrace(*tracePath)
	if err != nil {
		return err
	}

	cfg, workers := simCfg()
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithSimConfig(cfg), consumelocal.WithWorkers(workers),
		consumelocal.WithWindow(tr.HorizonSec))
	if err != nil {
		return err
	}
	res, err := job.Result()
	if err != nil {
		return err
	}

	if err := printSimReport(out, tr, res); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeResultJSON(res, *jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nfull result written to %s\n", *jsonPath)
	}
	return nil
}

// simFlags defines on fs the simulation flags simulate and replay
// share, and returns the function that builds the simulation
// configuration and shard-worker count from them once fs is parsed.
func simFlags(fs *flag.FlagSet) func() (sim.Config, int) {
	ratio := fs.Float64("ratio", 1.0, "upload-to-bitrate ratio q/beta")
	participation := fs.Float64("participation", 1.0, "fraction of users contributing upload capacity")
	seedRetention := fs.Int64("seed-retention", 0, "post-playback seeding window in seconds")
	tick := fs.Int64("tick", 0, "quantize sessions to this tick (seconds); 0 = exact")
	cityWide := fs.Bool("city-wide", false, "allow swarms to span ISPs")
	mixedBitrates := fs.Bool("mixed-bitrates", false, "allow swarms to mix bitrate classes")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "shard workers")
	return func() (sim.Config, int) {
		cfg := sim.DefaultConfig(*ratio)
		cfg.ParticipationRate = *participation
		cfg.SeedRetentionSec = *seedRetention
		cfg.QuantizeTickSec = *tick
		cfg.Swarm = swarm.Options{RestrictISP: !*cityWide, SplitBitrate: !*mixedBitrates}
		return cfg, *workers
	}
}

// loadTrace reads a trace CSV from path, or stdin when path is empty.
func loadTrace(path string) (*trace.Trace, error) {
	if path == "" {
		return trace.ReadCSV(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

// printSimReport renders the simulation outcome as a terminal report.
func printSimReport(out io.Writer, tr *trace.Trace, res *sim.Result) error {
	summary := tr.Summarize()
	fmt.Fprintf(out, "trace %q: %d users, %d sessions, %d days, %.2f TB watched\n",
		tr.Name, summary.Users, summary.Sessions, tr.Days(), summary.TotalBytes/1e12)
	fmt.Fprintf(out, "policy %s: %.1f%% of traffic served by peers\n\n",
		res.PolicyName, 100*res.Total.Offload())

	models := energy.BothModels()
	fmt.Fprintf(out, "%-8s %12s", "scope", "traffic")
	for _, p := range models {
		fmt.Fprintf(out, " %12s", p.Name)
	}
	fmt.Fprintln(out)

	printRow := func(scope string, t sim.Tally) {
		fmt.Fprintf(out, "%-8s %9.2f TB", scope, t.TotalBits/8/1e12)
		for _, p := range models {
			fmt.Fprintf(out, " %11.1f%%", 100*sim.Evaluate(t, p).Savings)
		}
		fmt.Fprintln(out)
	}
	for isp, tally := range res.ISPTotals() {
		if tally.TotalBits <= 0 {
			continue
		}
		printRow(fmt.Sprintf("ISP-%d", isp+1), tally)
	}
	printRow("system", res.Total)

	if res.Users != nil {
		fmt.Fprintln(out)
		for _, p := range models {
			dist := carbon.Distribute(res.Users, p)
			fmt.Fprintf(out, "carbon positive users (%s): %.1f%%\n", p.Name, 100*dist.CarbonPositive)
		}
	}
	return nil
}

// writeResultJSON archives the full result.
func writeResultJSON(res *sim.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return f.Close()
}
