package experiments

import (
	"fmt"

	"consumelocal/internal/core"
	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// AblationMatching compares the locality-first matching policy against
// random matching: how much of the saving comes from consuming *local*
// rather than from offloading per se.
func AblationMatching(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tr, err := trace.Generate(cfg.generatorConfig("ablation-matching", cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation matching: %w", err)
	}

	table := &Table{
		Title:   "Ablation: peer matching policy (system-wide savings)",
		Columns: []string{"policy", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, p.Name)
	}

	for _, policy := range []matching.Policy{matching.LocalityFirst{}, matching.Random{}} {
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.Policy = policy
		simCfg.TrackUsers = false
		result, err := replay(tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation matching: %w", err)
		}
		row := []string{policy.Name(), formatPercent(result.Total.Offload())}
		for _, params := range cfg.Models {
			row = append(row, formatPercent(sim.Evaluate(result.Total, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// AblationSwarmScope quantifies the two swarm-restriction obstacle factors
// of Section IV.B.1: ISP-friendliness and bitrate splitting. The paper
// treats ISP-restricted, bitrate-split swarms as the lower bound on
// savings; lifting either restriction grows swarms and savings.
func AblationSwarmScope(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tr, err := trace.Generate(cfg.generatorConfig("ablation-scope", cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation scope: %w", err)
	}

	table := &Table{
		Title:   "Ablation: swarm scope (system-wide savings)",
		Columns: []string{"swarm scope", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, p.Name)
	}

	cases := []struct {
		name string
		opts swarm.Options
	}{
		{"per-ISP, per-bitrate (paper)", swarm.Options{RestrictISP: true, SplitBitrate: true}},
		{"per-ISP, mixed bitrates", swarm.Options{RestrictISP: true, SplitBitrate: false}},
		{"city-wide, per-bitrate", swarm.Options{RestrictISP: false, SplitBitrate: true}},
		{"city-wide, mixed bitrates", swarm.Options{RestrictISP: false, SplitBitrate: false}},
	}
	for _, tc := range cases {
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.Swarm = tc.opts
		simCfg.TrackUsers = false
		result, err := replay(tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation scope: %w", err)
		}
		row := []string{tc.name, formatPercent(result.Total.Offload())}
		for _, params := range cfg.Models {
			row = append(row, formatPercent(sim.Evaluate(result.Total, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// AblationBudget quantifies the paper's Eq. 2 assumption that one peer's
// worth of upload capacity is lost to fetching novel chunks from the
// server: with the (L−1)·q cap versus without it.
func AblationBudget(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tr, err := trace.Generate(cfg.generatorConfig("ablation-budget", cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation budget: %w", err)
	}

	table := &Table{
		Title:   "Ablation: per-window peer capacity budget (Eq. 2)",
		Columns: []string{"budget", "offload"},
	}
	for _, p := range cfg.Models {
		table.Columns = append(table.Columns, p.Name)
	}

	for _, disabled := range []bool{false, true} {
		simCfg := sim.DefaultConfig(cfg.UploadRatio)
		simCfg.DisablePaperBudget = disabled
		simCfg.TrackUsers = false
		result, err := replay(tr, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation budget: %w", err)
		}
		name := "(L-1)q cap (paper)"
		if disabled {
			name = "uncapped L·q"
		}
		row := []string{name, formatPercent(result.Total.Offload())}
		for _, params := range cfg.Models {
			row = append(row, formatPercent(sim.Evaluate(result.Total, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// AblationTopology evaluates the closed form under alternative metro tree
// shapes: how sensitive the savings are to the published 345/9 node
// counts.
func AblationTopology(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	shapes := []struct {
		name      string
		exchanges int
		pops      int
	}{
		{"london 345/9 (paper)", 345, 9},
		{"dense edge 1000/20", 1000, 20},
		{"sparse edge 100/5", 100, 5},
		{"flat metro 50/2", 50, 2},
	}

	// Topology affects only locality, which the Valancius parameters
	// weight most heavily; use the first configured model.
	params := cfg.Models[0]
	ds := &Dataset{
		Title:  fmt.Sprintf("Ablation: topology sensitivity of S(c) (%s, q/b=%.1f)", params.Name, cfg.UploadRatio),
		XLabel: "capacity",
		YLabel: "energy savings",
	}
	grid := stats.LogSpace(0.01, 1000, 100)
	for _, shape := range shapes {
		topo, err := topology.New(shape.name, shape.exchanges, shape.pops)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation topology: %w", err)
		}
		model, err := core.New(params, topo.Probabilities())
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation topology: %w", err)
		}
		s := Series{Name: shape.name}
		for _, c := range grid {
			s.Points = append(s.Points, stats.Point{X: c, Y: model.Savings(c, cfg.UploadRatio)})
		}
		ds.Series = append(ds.Series, s)
	}
	return ds, nil
}
