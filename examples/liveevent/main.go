// Live event: the paper's future-work live-streaming scenario. Live
// audiences watch in lockstep, so swarms reach concurrencies that
// catch-up viewing never sees — and the energy savings of peer-assisted
// delivery approach the asymptotic bound during the broadcast. This
// example generates an evening with three live broadcasts, simulates
// hybrid delivery, and contrasts the outcome with a catch-up workload of
// comparable volume.
//
// Run with:
//
//	go run ./examples/liveevent [-scale 0.002]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"consumelocal"
	"consumelocal/internal/trace"
)

func main() {
	scale := flag.Float64("scale", 0.002, "audience scale relative to a city-sized broadcast")
	flag.Parse()
	if err := run(*scale); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64) error {
	liveCfg := trace.DefaultLiveConfig(scale)
	live, err := trace.GenerateLive(liveCfg)
	if err != nil {
		return err
	}

	// A catch-up workload with roughly the same number of sessions spread
	// over a full day, for contrast.
	cuCfg := consumelocal.DefaultTraceConfig(scale)
	cuCfg.Days = 1
	cuCfg.TargetSessions = len(live.Sessions)
	catchup, err := consumelocal.GenerateTrace(cuCfg)
	if err != nil {
		return err
	}

	var results [2]*consumelocal.SimResult
	for i, tr := range []*consumelocal.Trace{live, catchup} {
		job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr))
		if err != nil {
			return err
		}
		if results[i], err = job.Result(); err != nil {
			return err
		}
	}
	liveRes, cuRes := results[0], results[1]

	fmt.Printf("live evening: %d sessions across %d broadcasts\n",
		len(live.Sessions), len(liveCfg.Events))
	fmt.Printf("catch-up day: %d sessions across %d items\n\n",
		len(catchup.Sessions), catchup.NumContent)

	fmt.Printf("%-22s %10s %10s\n", "", "live", "catch-up")
	fmt.Printf("%-22s %9.1f%% %9.1f%%\n", "traffic from peers",
		100*liveRes.Total.Offload(), 100*cuRes.Total.Offload())
	for _, params := range consumelocal.BothEnergyModels() {
		fmt.Printf("%-22s %9.1f%% %9.1f%%\n", "savings ("+params.Name+")",
			100*consumelocal.EvaluateEnergy(liveRes.Total, params).Savings,
			100*consumelocal.EvaluateEnergy(cuRes.Total, params).Savings)
	}

	// Peak swarm concurrency explains the gap.
	peak := 0.0
	for _, sw := range liveRes.Swarms {
		if sw.Capacity > peak {
			peak = sw.Capacity
		}
	}
	fmt.Printf("\nlargest live swarm capacity (day average): %.1f concurrent viewers\n", peak)
	fmt.Println("live synchronisation pushes swarms toward the asymptotic savings bound.")
	return nil
}
