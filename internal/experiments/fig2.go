package experiments

import (
	"fmt"
	"sort"

	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// Fig2Ratios are the q/β values the paper sweeps in Fig. 2.
var Fig2Ratios = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// Fig2Result bundles the theory curves and simulation points of Fig. 2.
type Fig2Result struct {
	// Theory holds one dataset per energy model; each dataset has one
	// S(c) curve per q/β ratio.
	Theory []Dataset
	// Simulation holds one dataset per energy model; each dataset has one
	// point cloud per popularity tier, with one point per (ISP, q/β)
	// combination at the swarm's empirical capacity.
	Simulation []Dataset
	// Tiers documents which content items were selected per tier.
	Tiers *Table
}

// fig2Tier is one of the three popularity columns of Fig. 2.
type fig2Tier struct {
	name    string
	content uint32
	views   int
}

// Fig2 regenerates Fig. 2: per-content-item energy savings against swarm
// capacity — closed-form curves for each q/β, and simulation points for
// exemplar items of high, medium and low popularity across the top five
// ISPs, under both energy models. It picks the items from the base month
// and replays each item's sessions once per q/β.
func (s *Suite) Fig2() (*Fig2Result, error) {
	tr, err := s.Month()
	if err != nil {
		return nil, err
	}

	tiers := selectTiers(tr)
	models := energy.BothModels()
	closed, err := londonModels(models)
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{
		Tiers: &Table{
			Title:   "Fig. 2 exemplar content items",
			Columns: []string{"tier", "content id", "views"},
		},
	}
	for _, tier := range tiers {
		res.Tiers.Rows = append(res.Tiers.Rows, []string{
			tier.name, fmt.Sprintf("%d", tier.content), formatCount(tier.views),
		})
	}

	// Theory curves per model and ratio.
	capGrid := stats.LogSpace(0.01, 100, 120)
	for m, params := range models {
		ds := Dataset{
			Title:  fmt.Sprintf("Fig. 2 theory (%s)", params.Name),
			XLabel: "capacity",
			YLabel: "energy savings",
		}
		for _, ratio := range Fig2Ratios {
			series := Series{Name: fmt.Sprintf("theory q/b=%.1f", ratio)}
			for _, c := range capGrid {
				series.Points = append(series.Points, stats.Point{X: c, Y: closed[m].Savings(c, ratio)})
			}
			ds.Series = append(ds.Series, series)
		}
		res.Theory = append(res.Theory, ds)
	}

	// Simulation points: per tier, run the item's sub-trace for each
	// ratio, then extract the SD-class swarm of every ISP (the dominant
	// bitrate class, matching the single-β theory curves).
	type simPoint struct {
		tier  string
		isp   int16
		ratio float64
		cap_  float64
		tally sim.Tally
	}
	var points []simPoint
	for _, tier := range tiers {
		sub := filterContent(tr, tier.content)
		for _, ratio := range Fig2Ratios {
			simCfg := sim.DefaultConfig(ratio)
			simCfg.TrackUsers = false
			result, err := replay(sub, simCfg)
			if err != nil {
				return nil, err
			}
			for _, sw := range result.Swarms {
				if sw.Key.Bitrate != int32(trace.BitrateSD) || sw.Tally.TotalBits <= 0 {
					continue
				}
				points = append(points, simPoint{
					tier:  tier.name,
					isp:   sw.Key.ISP,
					ratio: ratio,
					cap_:  sw.Capacity,
					tally: sw.Tally,
				})
			}
		}
	}

	for _, params := range models {
		ds := Dataset{
			Title:  fmt.Sprintf("Fig. 2 simulation (%s)", params.Name),
			XLabel: "capacity",
			YLabel: "energy savings",
		}
		bySeries := make(map[string]*Series)
		var order []string
		for _, p := range points {
			name := fmt.Sprintf("sim %s ISP-%d", p.tier, p.isp+1)
			series, ok := bySeries[name]
			if !ok {
				series = &Series{Name: name}
				bySeries[name] = series
				order = append(order, name)
			}
			series.Points = append(series.Points, stats.Point{
				X: p.cap_,
				Y: sim.Evaluate(p.tally, params).Savings,
			})
		}
		sort.Strings(order)
		for _, name := range order {
			ds.Series = append(ds.Series, *bySeries[name])
		}
		res.Simulation = append(res.Simulation, ds)
	}
	return res, nil
}

// selectTiers picks the three exemplar items of Fig. 2: the most popular
// item, one with roughly a tenth of its views, and one with roughly a
// hundredth (the paper's 100K / 10K / 1K split).
func selectTiers(tr *trace.Trace) []fig2Tier {
	counts := tr.ViewCounts()
	popular := 0
	for id, c := range counts {
		if c > counts[popular] {
			popular = id
		}
	}
	medium := closestViews(counts, counts[popular]/10)
	niche := closestViews(counts, counts[popular]/100)
	return []fig2Tier{
		{name: "popular", content: uint32(popular), views: counts[popular]},
		{name: "medium", content: uint32(medium), views: counts[medium]},
		{name: "niche", content: uint32(niche), views: counts[niche]},
	}
}

// closestViews returns the item whose view count is closest to target
// (but at least 1 view).
func closestViews(counts []int, target int) int {
	best := -1
	for id, c := range counts {
		if c < 1 {
			continue
		}
		if best < 0 || abs(c-target) < abs(counts[best]-target) {
			best = id
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// filterContent builds the sub-trace holding only the sessions of one
// content item.
func filterContent(tr *trace.Trace, content uint32) *trace.Trace {
	sub := &trace.Trace{
		Name:       fmt.Sprintf("%s-item%d", tr.Name, content),
		Epoch:      tr.Epoch,
		HorizonSec: tr.HorizonSec,
		NumUsers:   tr.NumUsers,
		NumContent: tr.NumContent,
		NumISPs:    tr.NumISPs,
	}
	for _, s := range tr.Sessions {
		if s.ContentID == content {
			sub.Sessions = append(sub.Sessions, s)
		}
	}
	return sub
}

// theoreticalSwarmSavings computes, under each closed-form model, the
// traffic-weighted savings over a set of swarms — the "theo." curves of
// Fig. 4 and the aggregate comparisons. Each swarm contributes
// S(c_swarm) weighted by its useful traffic.
func theoreticalSwarmSavings(models []*core.Model, swarms []*swarm.Swarm, horizon int64, ratio float64) []float64 {
	capacities := make([]float64, len(swarms))
	weights := make([]float64, len(swarms))
	for i, sw := range swarms {
		capacities[i] = sw.Capacity(horizon)
		weights[i] = sw.Bytes()
	}
	out := make([]float64, len(models))
	values := make([]float64, len(swarms))
	for m, model := range models {
		for i, c := range capacities {
			values[i] = model.Savings(c, ratio)
		}
		out[m] = stats.WeightedMean(values, weights)
	}
	return out
}
