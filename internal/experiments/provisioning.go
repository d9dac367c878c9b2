package experiments

import (
	"fmt"

	"consumelocal/internal/cdn"
)

// Provisioning quantifies the CDN-operator benefit the paper's
// introduction motivates but does not measure: the reduction in the
// server capacity that must be provisioned for peak load once peers
// absorb part of the demand. Peak reductions typically exceed mean
// traffic reductions because sharing clips the popular-content peaks
// hardest. It reads the shared replay.
func (s *Suite) Provisioning() (*Table, error) {
	_, result, err := s.paperRun()
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title: "CDN peak provisioning with peer assistance",
		Columns: []string{
			"scope", "peak baseline (Gb/s)", "peak hybrid (Gb/s)",
			"peak reduction", "mean reduction",
		},
	}

	system, err := cdn.Provisioning(result)
	if err != nil {
		return nil, fmt.Errorf("experiments: provisioning: %w", err)
	}
	table.Rows = append(table.Rows, provisioningRow("system", system))
	for isp, rep := range cdn.PerISP(result) {
		if rep.PeakBaselineBps <= 0 {
			continue
		}
		table.Rows = append(table.Rows, provisioningRow(fmt.Sprintf("ISP-%d", isp+1), rep))
	}
	return table, nil
}

// provisioningRow renders one report as a table row.
func provisioningRow(scope string, rep cdn.ProvisioningReport) []string {
	const gbps = 1e9
	return []string{
		scope,
		fmt.Sprintf("%.3f", rep.PeakBaselineBps/gbps),
		fmt.Sprintf("%.3f", rep.PeakHybridBps/gbps),
		formatPercent(rep.PeakReduction),
		formatPercent(rep.MeanReduction),
	}
}
