package experiments

import (
	"fmt"

	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/swarm"
	"consumelocal/internal/topology"
)

// arm is one row of an ablation table: its label and the change it makes
// to the paper's simulation config. A nil change is the paper's config.
type arm struct {
	label  string
	change func(*sim.Config)
}

// ablation tabulates each arm's system-wide offload and savings over the
// base month. The paper arm reads the shared replay; every other arm
// replays the month under its own config.
func (s *Suite) ablation(title, column string, arms []arm) (*Table, error) {
	table := &Table{Title: title, Columns: modelColumns(column, "offload")}
	for _, a := range arms {
		res, err := s.simulate(a.change)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, savingsRow(res.Total, a.label))
	}
	return table, nil
}

// modelColumns appends one column per energy model to the leading
// headers.
func modelColumns(headers ...string) []string {
	for _, params := range energy.BothModels() {
		headers = append(headers, params.Name)
	}
	return headers
}

// savingsRow appends the tally's offload and its savings under each
// energy model to the leading cells.
func savingsRow(t sim.Tally, cells ...string) []string {
	row := append(cells, formatPercent(t.Offload()))
	for _, params := range energy.BothModels() {
		row = append(row, formatPercent(sim.Evaluate(t, params).Savings))
	}
	return row
}

// AblationMatching compares the locality-first matching policy against
// random matching: how much of the saving comes from consuming *local*
// rather than from offloading per se.
func (s *Suite) AblationMatching() (*Table, error) {
	return s.ablation("Ablation: peer matching policy (system-wide savings)", "policy", []arm{
		{matching.LocalityFirst{}.Name(), nil},
		{matching.Random{}.Name(), func(c *sim.Config) { c.Policy = matching.Random{} }},
	})
}

// AblationSwarmScope quantifies the two swarm-restriction obstacle factors
// of Section IV.B.1: ISP-friendliness and bitrate splitting. The paper
// treats ISP-restricted, bitrate-split swarms as the lower bound on
// savings; lifting either restriction grows swarms and savings.
func (s *Suite) AblationSwarmScope() (*Table, error) {
	scope := func(restrictISP, splitBitrate bool) func(*sim.Config) {
		return func(c *sim.Config) {
			c.Swarm = swarm.Options{RestrictISP: restrictISP, SplitBitrate: splitBitrate}
		}
	}
	return s.ablation("Ablation: swarm scope (system-wide savings)", "swarm scope", []arm{
		{"per-ISP, per-bitrate (paper)", nil},
		{"per-ISP, mixed bitrates", scope(true, false)},
		{"city-wide, per-bitrate", scope(false, true)},
		{"city-wide, mixed bitrates", scope(false, false)},
	})
}

// AblationBudget quantifies the paper's Eq. 2 assumption that one peer's
// worth of upload capacity is lost to fetching novel chunks from the
// server: with the (L−1)·q cap versus without it.
func (s *Suite) AblationBudget() (*Table, error) {
	return s.ablation("Ablation: per-window peer capacity budget (Eq. 2)", "budget", []arm{
		{"(L-1)q cap (paper)", nil},
		{"uncapped L·q", func(c *sim.Config) { c.DisablePaperBudget = true }},
	})
}

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
func (s *Suite) AblationParticipation() (*Table, error) {
	arms := make([]arm, 0, len(ParticipationRates))
	for _, rate := range ParticipationRates {
		a := arm{label: formatPercent(rate)}
		switch rate {
		case 1.0:
			// Full participation is the paper's config itself.
			a.label += " (paper assumption)"
		case 0.3:
			a.label += " (Akamai, Zhao et al.)"
		}
		if rate != 1.0 {
			a.change = func(c *sim.Config) { c.ParticipationRate = rate }
		}
		arms = append(arms, a)
	}
	return s.ablation("Ablation: upload participation rate (system-wide savings)", "participation", arms)
}

// AblationTopology evaluates the closed form under alternative metro tree
// shapes: how sensitive the savings are to the published 345/9 node
// counts.
func (s *Suite) AblationTopology() (*Dataset, error) {
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
	// weight most heavily.
	params := energy.Valancius()
	ds := &Dataset{
		Title:  fmt.Sprintf("Ablation: topology sensitivity of S(c) (%s, q/b=%.1f)", params.Name, s.cfg.UploadRatio),
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
		series := Series{Name: shape.name}
		for _, c := range grid {
			series.Points = append(series.Points, stats.Point{X: c, Y: model.Savings(c, s.cfg.UploadRatio)})
		}
		ds.Series = append(ds.Series, series)
	}
	return ds, nil
}
