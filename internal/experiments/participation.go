package experiments

import (
	"fmt"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// ParticipationRates are the upload-participation levels swept by the
// participation ablation. The 0.3 point is the Akamai NetSession
// participation level the paper's conclusion quotes (Zhao et al.,
// IMC 2013).
var ParticipationRates = []float64{1.0, 0.6, 0.3, 0.1}

// AblationParticipation sweeps the fraction of users who contribute
// upload capacity. The paper assumes full participation and motivates
// carbon credits precisely as the incentive to raise real-world
// participation from the ~30% Akamai observes; this ablation quantifies
// what is at stake.
func AblationParticipation(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tr, err := trace.Generate(cfg.generatorConfig("ablation-participation", cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation participation: %w", err)
	}

	table := &Table{
		Title:   "Ablation: upload participation rate (system-wide savings)",
		Columns: []string{"participation", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, p.Name)
	}

	for _, rate := range ParticipationRates {
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.ParticipationRate = rate
		simCfg.TrackUsers = false
		result, err := replay(tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation participation: %w", err)
		}
		label := formatPercent(rate)
		if rate == 0.3 {
			label += " (Akamai, Zhao et al.)"
		}
		if rate == 1.0 {
			label += " (paper assumption)"
		}
		row := []string{label, formatPercent(result.Total.Offload())}
		for _, params := range cfg.Models {
			row = append(row, formatPercent(sim.Evaluate(result.Total, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}
