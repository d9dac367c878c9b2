// Catch-up TV: the paper's motivating workload end to end. Generates a
// synthetic month of BBC-iPlayer-like sessions for a large city, runs the
// hybrid-CDN simulator with ISP-friendly locality-first swarms, and
// reports the system-wide energy savings per ISP under both energy
// models — the experiment behind the paper's headline 24–48% figure.
//
// Run with:
//
//	go run ./examples/catchuptv [-scale 0.01] [-days 30] [-ratio 1.0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"consumelocal"
)

func main() {
	scale := flag.Float64("scale", 0.01, "trace scale relative to the paper's dataset")
	days := flag.Int("days", 30, "trace horizon in days")
	ratio := flag.Float64("ratio", 1.0, "upload-to-bitrate ratio q/beta")
	flag.Parse()

	if err := run(*scale, *days, *ratio); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64, days int, ratio float64) error {
	cfg := consumelocal.DefaultTraceConfig(scale)
	cfg.Days = days
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		return err
	}
	summary := tr.Summarize()
	fmt.Printf("workload: %d users, %d sessions over %d days (%.1f TB watched)\n",
		summary.Users, summary.Sessions, days, summary.TotalBytes/1e12)

	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithUploadRatio(ratio))
	if err != nil {
		return err
	}
	res, err := job.Result()
	if err != nil {
		return err
	}
	fmt.Printf("hybrid delivery: %.1f%% of traffic served by peers (q/β=%.1f)\n\n",
		100*res.Total.Offload(), ratio)

	fmt.Printf("%-8s %12s %14s %14s\n", "ISP", "traffic", "valancius", "baliga")
	ispTotals := res.ISPTotals()
	models := consumelocal.BothEnergyModels()
	for isp, tally := range ispTotals {
		if tally.TotalBits <= 0 {
			continue
		}
		fmt.Printf("ISP-%-4d %9.2f TB %13.1f%% %13.1f%%\n",
			isp+1,
			tally.TotalBits/8/1e12,
			100*consumelocal.EvaluateEnergy(tally, models[0]).Savings,
			100*consumelocal.EvaluateEnergy(tally, models[1]).Savings)
	}

	fmt.Println()
	for _, params := range models {
		rep := consumelocal.EvaluateEnergy(res.Total, params)
		fmt.Printf("system-wide (%s): baseline %.1f MJ, hybrid %.1f MJ, saving %.1f%%\n",
			params.Name, rep.BaselineJoules/1e6, rep.HybridJoules/1e6, 100*rep.Savings)
	}
	return nil
}
