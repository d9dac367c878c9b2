package experiments

import (
	"fmt"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// Live contrasts the paper's catch-up workload with the live-streaming
// scenario it lists as future work: the same delivery volume, but
// synchronised around broadcast schedules. Live swarms reach audience-
// sized concurrency, pushing savings toward the asymptotic bound, while a
// catch-up workload of equal volume spreads the same sessions across a
// day and a catalogue.
func Live(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()

	liveCfg := trace.DefaultLiveConfig(cfg.Scale)
	liveCfg.Seed = cfg.Seed
	live, err := trace.GenerateLive(liveCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live: %w", err)
	}

	cuCfg := cfg.generatorConfig("live-vs-catchup", cfg.Seed)
	cuCfg.Days = 1
	cuCfg.TargetSessions = len(live.Sessions)
	catchup, err := trace.Generate(cuCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live: %w", err)
	}

	table := &Table{
		Title:   "Live broadcasts vs catch-up viewing (equal session volume)",
		Columns: []string{"workload", "sessions", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, p.Name)
	}

	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"live evening", live},
		{"catch-up day", catchup},
	} {
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.TrackUsers = false
		result, err := replay(tc.tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: live: %s: %w", tc.name, err)
		}
		row := []string{tc.name, formatCount(len(tc.tr.Sessions)), formatPercent(result.Total.Offload())}
		for _, params := range cfg.Models {
			row = append(row, formatPercent(sim.Evaluate(result.Total, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}
