// Carbon credits: who becomes carbon positive? Simulates a synthetic
// month of catch-up TV, transfers the CDN's energy savings to uploading
// users as carbon credits (paper Section V), and reports how the net
// per-user carbon balance distributes — including why the remaining
// carbon-negative users stay negative (they watch niche content with
// swarms too small to share from).
//
// Run with:
//
//	go run ./examples/carboncredits [-scale 0.01] [-days 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"consumelocal"
)

func main() {
	scale := flag.Float64("scale", 0.01, "trace scale relative to the paper's dataset")
	days := flag.Int("days", 30, "trace horizon in days")
	flag.Parse()

	if err := run(*scale, *days); err != nil {
		log.Fatal(err)
	}
}

func run(scale float64, days int) error {
	cfg := consumelocal.DefaultTraceConfig(scale)
	cfg.Days = days
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		return err
	}
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr))
	if err != nil {
		return err
	}
	res, err := job.Result()
	if err != nil {
		return err
	}

	fmt.Println("Per-user carbon balance after carbon credit transfer (Eq. 13)")
	fmt.Println()
	for _, params := range consumelocal.BothEnergyModels() {
		dist := consumelocal.CarbonCredits(res, params)
		fmt.Printf("%s model:\n", params.Name)
		fmt.Printf("  users analysed:       %d\n", dist.Users)
		fmt.Printf("  carbon positive:      %.1f%%\n", 100*dist.CarbonPositive)
		fmt.Printf("  median per-user CCT:  %+.3f\n", dist.Median)
		fmt.Printf("  CCT quartiles (CDF):  %s\n", quartiles(dist))
		fmt.Println()
	}

	// Why do some users stay carbon negative? Inspect the sharing ratio
	// of the extremes: positive users upload much more than they consume
	// because they watch popular, well-swarmed content.
	type userShare struct {
		id    uint32
		share float64 // uploaded / downloaded
	}
	shares := make([]userShare, 0, len(res.Users))
	for id, u := range res.Users {
		if u.DownloadedBits <= 0 {
			continue
		}
		shares = append(shares, userShare{id: id, share: u.UploadedBits / u.DownloadedBits})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].share > shares[j].share })
	if len(shares) > 10 {
		var top, bottom float64
		for _, s := range shares[:10] {
			top += s.share
		}
		for _, s := range shares[len(shares)-10:] {
			bottom += s.share
		}
		fmt.Printf("sharing ratio (uploaded/downloaded): top-10 users avg %.2f, bottom-10 avg %.2f\n",
			top/10, bottom/10)
		fmt.Println("users with small ratios watch niche items whose swarms are too small to upload into.")
	}
	return nil
}

// quartiles renders the 25/50/75% points of the CCT CDF.
func quartiles(dist consumelocal.CarbonDistribution) string {
	q := func(target float64) float64 {
		for _, p := range dist.CDF {
			if p.Y >= target {
				return p.X
			}
		}
		if n := len(dist.CDF); n > 0 {
			return dist.CDF[n-1].X
		}
		return 0
	}
	return fmt.Sprintf("p25=%+.2f p50=%+.2f p75=%+.2f", q(0.25), q(0.50), q(0.75))
}
