package experiments

import (
	"fmt"

	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// Fig4ISPs are the ISP indices plotted by the paper's Fig. 4 (labelled
// ISP-1, ISP-4 and ISP-5 there; zero-based here).
var Fig4ISPs = []int{0, 3, 4}

// Fig4Result holds the daily aggregate savings comparison of Fig. 4.
type Fig4Result struct {
	// Datasets holds one dataset per energy model; each has a "sim" and a
	// "theo" series per ISP, with day number on the x axis.
	Datasets []Dataset
	// Summary reports the month-average savings per model and ISP.
	Summary *Table
}

// Fig4 regenerates Fig. 4: the aggregate energy savings across all
// requests to all items of the catalogue, per day of the month and per
// ISP, from the shared replay and from the closed form (swarm-by-swarm,
// traffic weighted).
func (s *Suite) Fig4() (*Fig4Result, error) {
	tr, result, err := s.paperRun()
	if err != nil {
		return nil, err
	}
	models := energy.BothModels()
	closed, err := londonModels(models)
	if err != nil {
		return nil, err
	}

	// theory[i][day] holds the closed-form savings of ISP Fig4ISPs[i] on
	// that day under each model, for the days the ISP has traffic.
	theory := make([][][]float64, len(Fig4ISPs))
	for i, isp := range Fig4ISPs {
		theory[i] = make([][]float64, len(result.Days))
		for day := range result.Days {
			if result.Days[day][isp].TotalBits > 0 {
				theory[i][day] = theoreticalDailySavings(tr, closed, day, isp, s.cfg.UploadRatio)
			}
		}
	}

	res := &Fig4Result{
		Summary: &Table{
			Title:   "Fig. 4 month-average aggregate savings",
			Columns: []string{"model", "isp", "sim", "theory"},
		},
	}
	for m, params := range models {
		ds := Dataset{
			Title:  fmt.Sprintf("Fig. 4 daily aggregate savings (%s)", params.Name),
			XLabel: "day",
			YLabel: "energy savings",
		}
		for i, isp := range Fig4ISPs {
			simSeries := Series{Name: fmt.Sprintf("ISP-%d sim", isp+1)}
			theoSeries := Series{Name: fmt.Sprintf("ISP-%d theo", isp+1)}
			var simVals, theoVals []float64
			for day := range result.Days {
				tally := result.Days[day][isp]
				if tally.TotalBits <= 0 {
					continue
				}
				simS := sim.Evaluate(tally, params).Savings
				theoS := theory[i][day][m]
				simSeries.Points = append(simSeries.Points, stats.Point{X: float64(day + 1), Y: simS})
				theoSeries.Points = append(theoSeries.Points, stats.Point{X: float64(day + 1), Y: theoS})
				simVals = append(simVals, simS)
				theoVals = append(theoVals, theoS)
			}
			ds.Series = append(ds.Series, simSeries, theoSeries)
			res.Summary.Rows = append(res.Summary.Rows, []string{
				params.Name,
				fmt.Sprintf("ISP-%d", isp+1),
				formatPercent(stats.Mean(simVals)),
				formatPercent(stats.Mean(theoVals)),
			})
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

// theoreticalDailySavings evaluates the closed form for one day and ISP
// under each model: sessions overlapping the day are clipped to it,
// grouped into swarms, and each swarm contributes S(c_day) weighted by
// its traffic within the day.
func theoreticalDailySavings(tr *trace.Trace, models []*core.Model, day, isp int, ratio float64) []float64 {
	const daySec = int64(24 * 3600)
	dayStart := int64(day) * daySec
	dayEnd := dayStart + daySec

	clipped := &trace.Trace{
		Name:       tr.Name,
		Epoch:      tr.Epoch,
		HorizonSec: daySec,
		NumUsers:   tr.NumUsers,
		NumContent: tr.NumContent,
		NumISPs:    tr.NumISPs,
	}
	for _, s := range tr.Sessions {
		if int(s.ISP) != isp {
			continue
		}
		start, end := s.StartSec, s.EndSec()
		if end <= dayStart || start >= dayEnd {
			continue
		}
		if start < dayStart {
			start = dayStart
		}
		if end > dayEnd {
			end = dayEnd
		}
		s.StartSec = start - dayStart
		s.DurationSec = int32(end - start)
		if s.DurationSec <= 0 {
			continue
		}
		clipped.Sessions = append(clipped.Sessions, s)
	}
	swarms := swarm.Group(clipped, swarm.DefaultOptions())
	return theoreticalSwarmSavings(models, swarms, daySec, ratio)
}
