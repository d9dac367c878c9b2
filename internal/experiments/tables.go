package experiments

import (
	"fmt"

	"consumelocal/internal/energy"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// Table1 regenerates the paper's Table I: dataset description for two
// month-long traces (the paper uses Sep 2013 and Jul 2014; we generate two
// independent synthetic months with slightly different populations, as the
// real service grew between the two samples). The Sep-2013 column is the
// base month; the Jul-2014 month is generated from the next seed.
func (s *Suite) Table1() (*Table, error) {
	sep, err := s.Month()
	if err != nil {
		return nil, err
	}
	gcJul := s.cfg.monthConfig(s.cfg.Scale)
	gcJul.Seed++
	// The service grew ~9% in users and ~3% in sessions between samples.
	gcJul.NumUsers = int(float64(gcJul.NumUsers) * 1.09)
	gcJul.TargetSessions = int(float64(gcJul.TargetSessions) * 1.03)
	jul, err := trace.Generate(gcJul)
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title:   "Table I: Description of the dataset",
		Columns: []string{"metric", "sep-2013", "jul-2014"},
	}
	summaries := []trace.Summary{sep.Summarize(), jul.Summarize()}

	table.Rows = [][]string{
		{"Number of Users", formatCount(summaries[0].Users), formatCount(summaries[1].Users)},
		{"Number of IP addresses", formatCount(summaries[0].IPAddresses), formatCount(summaries[1].IPAddresses)},
		{"Number of Sessions", formatCount(summaries[0].Sessions), formatCount(summaries[1].Sessions)},
		{"Users per IP", fmt.Sprintf("%.2f", summaries[0].UsersPerIP()), fmt.Sprintf("%.2f", summaries[1].UsersPerIP())},
		{"Mean session (s)", fmt.Sprintf("%.0f", summaries[0].MeanSessionSec), fmt.Sprintf("%.0f", summaries[1].MeanSessionSec)},
	}
	return table, nil
}

// Table3 regenerates the paper's Table III: the number of nodes and the
// localisation probability at each layer of the ISP metropolitan tree.
func Table3() *Table {
	topo := topology.DefaultLondon()
	probs := topo.Probabilities()
	return &Table{
		Title:   "Table III: Probability of localising peers within a given layer",
		Columns: []string{"layer", "count", "localisation probability"},
		Rows: [][]string{
			{"Exchange Point", formatCount(topo.Exchanges()), formatPercent(probs.Exchange)},
			{"Point of Presence", formatCount(topo.PoPs()), formatPercent(probs.PoP)},
			{"Core Router", "1", formatPercent(probs.Core)},
		},
	}
}

// Table4 regenerates the paper's Table IV: the per-bit energy parameters
// of the Valancius et al. and Baliga et al. models.
func Table4() *Table {
	models := energy.BothModels()
	table := &Table{
		Title:   "Table IV: Energy parameters (nJ/bit)",
		Columns: modelColumns("variable"),
	}

	rows := []struct {
		label string
		value func(pIdx int) string
	}{
		{"Content Server (γs)", func(i int) string { return fmt.Sprintf("%.1f", models[i].Server) }},
		{"End User Modem (γm)", func(i int) string { return fmt.Sprintf("%.1f", models[i].Modem) }},
		{"Traditional CDN Network (γcdn)", func(i int) string { return fmt.Sprintf("%.1f", models[i].CDNNetwork) }},
		{"P2P Network within ExP (γexp)", func(i int) string { return fmt.Sprintf("%.2f", models[i].ExchangeNetwork) }},
		{"P2P Network within PoP (γpop)", func(i int) string { return fmt.Sprintf("%.2f", models[i].PoPNetwork) }},
		{"P2P Network within Core (γcore)", func(i int) string { return fmt.Sprintf("%.2f", models[i].CoreNetwork) }},
		{"Power Efficiency (PUE)", func(i int) string { return fmt.Sprintf("%.1f", models[i].PUE) }},
		{"End-user energy loss (l)", func(i int) string { return fmt.Sprintf("%.2f", models[i].Loss) }},
		{"ψs = PUE(γs+γcdn)+lγm", func(i int) string { return fmt.Sprintf("%.1f", models[i].ServerPerBit()) }},
		{"ψm_p = 2lγm", func(i int) string { return fmt.Sprintf("%.1f", models[i].PeerModemPerBit()) }},
	}
	for _, r := range rows {
		row := []string{r.label}
		for i := range models {
			row = append(row, r.value(i))
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}
