package experiments

import (
	"fmt"

	"consumelocal/internal/core"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// AblationPlacement probes the robustness of the paper's uniform-placement
// approximation (Section III.D: "this is an approximation based on the
// expected distance between pairs of users... our empirical analyses
// suggest that this approach gives a good approximation"). Real metro
// populations concentrate in popular exchanges; this experiment skews user
// placement and compares simulated savings against the uniform-placement
// closed form.
func AblationPlacement(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()

	table := &Table{
		Title:   "Ablation: user placement skew vs the uniform-placement theory",
		Columns: []string{"placement", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, "sim "+p.Name, "theory "+p.Name)
	}

	probs := topology.DefaultLondon().Probabilities()
	for _, skew := range []float64{0, 0.5, 1.0} {
		gc := cfg.generatorConfig(fmt.Sprintf("placement-skew-%g", skew), cfg.Seed)
		gc.ExchangeSkew = skew
		tr, err := trace.Generate(gc)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation placement: %w", err)
		}
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.TrackUsers = false
		result, err := replay(tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation placement: %w", err)
		}

		label := "uniform (paper)"
		if skew > 0 {
			label = fmt.Sprintf("zipf skew %.1f", skew)
		}
		row := []string{label, formatPercent(result.Total.Offload())}
		swarms := swarm.Group(tr, simCfg.Swarm)
		for _, params := range cfg.Models {
			model, err := core.New(params, probs)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation placement: %w", err)
			}
			simS := sim.Evaluate(result.Total, params).Savings
			theoS := theoreticalSwarmSavings(model, swarms, tr.HorizonSec, cfg.UploadRatio)
			row = append(row, formatPercent(simS), formatPercent(theoS))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// PlacementGap summarises, for tests, the absolute gap between simulated
// and theoretical savings at a given skew under the first configured
// model.
func PlacementGap(cfg Config, skew float64) (float64, error) {
	cfg = cfg.withDefaults()
	gc := cfg.generatorConfig("placement-gap", cfg.Seed)
	gc.ExchangeSkew = skew
	tr, err := trace.Generate(gc)
	if err != nil {
		return 0, err
	}
	simCfg := sim.DefaultConfig(cfg.UploadRatio)
	simCfg.TrackUsers = false
	result, err := replay(tr, simCfg)
	if err != nil {
		return 0, err
	}
	model, err := core.New(cfg.Models[0], topology.DefaultLondon().Probabilities())
	if err != nil {
		return 0, err
	}
	simS := sim.Evaluate(result.Total, cfg.Models[0]).Savings
	theoS := theoreticalSwarmSavings(model, swarm.Group(tr, simCfg.Swarm), tr.HorizonSec, cfg.UploadRatio)
	return stats.Clamp(simS-theoS, -1, 1), nil
}
