package experiments

import (
	"fmt"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
)

// AblationPlacement probes the robustness of the paper's uniform-placement
// approximation (Section III.D: "this is an approximation based on the
// expected distance between pairs of users... our empirical analyses
// suggest that this approach gives a good approximation"). Real metro
// populations concentrate in popular exchanges; this experiment skews user
// placement and compares simulated savings against the uniform-placement
// closed form.
func (s *Suite) AblationPlacement() (*Table, error) {
	table := &Table{
		Title:   "Ablation: user placement skew vs the uniform-placement theory",
		Columns: []string{"placement", "offload"},
	}
	for _, params := range energy.BothModels() {
		table.Columns = append(table.Columns, "sim "+params.Name, "theory "+params.Name)
	}
	for _, skew := range []float64{0, 0.5, 1.0} {
		offload, simS, theoS, err := s.placement(skew)
		if err != nil {
			return nil, err
		}
		label := "uniform (paper)"
		if skew > 0 {
			label = fmt.Sprintf("zipf skew %.1f", skew)
		}
		row := []string{label, formatPercent(offload)}
		for m := range simS {
			row = append(row, formatPercent(simS[m]), formatPercent(theoS[m]))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// PlacementGap summarises, for tests, the gap between simulated and
// theoretical savings under the Valancius model at a given placement
// skew, clamped to [−1, 1].
func (s *Suite) PlacementGap(skew float64) (float64, error) {
	_, simS, theoS, err := s.placement(skew)
	if err != nil {
		return 0, err
	}
	return stats.Clamp(simS[0]-theoS[0], -1, 1), nil
}

// placement returns, for the month with users placed at the given
// exchange skew, its offload and, per energy model, its simulated and
// closed-form savings. Skew 0 is the paper's uniform placement: the
// shared month and replay.
func (s *Suite) placement(skew float64) (offload float64, simS, theoS []float64, err error) {
	tr, res, err := s.workload(s.cfg.Scale, skew)
	if err != nil {
		return 0, nil, nil, err
	}
	models := energy.BothModels()
	closed, err := londonModels(models)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, params := range models {
		simS = append(simS, sim.Evaluate(res.Total, params).Savings)
	}
	theoS = theoreticalSwarmSavings(closed, swarm.Group(tr, swarm.DefaultOptions()), tr.HorizonSec, s.cfg.UploadRatio)
	return res.Total.Offload(), simS, theoS, nil
}
