package experiments

import (
	"fmt"

	"consumelocal/internal/energy"
	"consumelocal/internal/stats"
)

// Fig5Result holds the savings decomposition of Fig. 5.
type Fig5Result struct {
	// Datasets holds one dataset per energy model with the four curves
	// End-to-End, CDN, User and CC Transfer against swarm capacity.
	Datasets []Dataset
	// Summary quotes the carbon-neutral offload point G* and the
	// asymptotic carbon positivity per model.
	Summary *Table
}

// Fig5 regenerates Fig. 5: how the system's energy savings decompose
// between the CDN and the users as swarm capacity grows, and where carbon
// credit transfer turns users carbon positive. This experiment is purely
// analytical (no trace or simulation), exactly as in the paper.
func (s *Suite) Fig5() (*Fig5Result, error) {
	models := energy.BothModels()
	closed, err := londonModels(models)
	if err != nil {
		return nil, err
	}
	grid := stats.LogSpace(0.001, 10000, 200)

	res := &Fig5Result{
		Summary: &Table{
			Title:   "Fig. 5 carbon credit transfer summary",
			Columns: []string{"metric"},
		},
	}
	neutralRow := []string{"carbon-neutral offload G*"}
	asymptoteRow := []string{"asymptotic CCT (G=1)"}
	crossoverRow := []string{"capacity where users turn carbon positive"}

	for m, params := range models {
		model := closed[m]
		ds := Dataset{
			Title:  fmt.Sprintf("Fig. 5 savings decomposition (%s)", params.Name),
			XLabel: "capacity",
			YLabel: "energy savings",
		}
		endToEnd := Series{Name: "End-to-End"}
		cdn := Series{Name: "CDN"}
		user := Series{Name: "User"}
		cct := Series{Name: "CC Transfer"}
		crossover := -1.0
		for _, c := range grid {
			b := model.Breakdown(c, s.cfg.UploadRatio)
			endToEnd.Points = append(endToEnd.Points, stats.Point{X: c, Y: b.EndToEnd})
			cdn.Points = append(cdn.Points, stats.Point{X: c, Y: b.CDN})
			user.Points = append(user.Points, stats.Point{X: c, Y: b.User})
			cct.Points = append(cct.Points, stats.Point{X: c, Y: b.CCTransfer})
			if crossover < 0 && b.CCTransfer >= 0 {
				crossover = c
			}
		}
		ds.Series = []Series{endToEnd, cdn, user, cct}
		res.Datasets = append(res.Datasets, ds)

		res.Summary.Columns = append(res.Summary.Columns, params.Name)
		if g, ok := model.CarbonNeutralOffload(); ok {
			neutralRow = append(neutralRow, fmt.Sprintf("%.3f", g))
		} else {
			neutralRow = append(neutralRow, "unreachable")
		}
		asymptoteRow = append(asymptoteRow, formatPercent(model.AsymptoticCCT()))
		if crossover >= 0 {
			crossoverRow = append(crossoverRow, fmt.Sprintf("%.2f", crossover))
		} else {
			crossoverRow = append(crossoverRow, "never")
		}
	}
	res.Summary.Rows = append(res.Summary.Rows, neutralRow, asymptoteRow, crossoverRow)
	return res, nil
}
