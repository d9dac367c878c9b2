package experiments

import (
	"fmt"
	"sort"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
)

// Accounting contrasts the two energy-accounting schools the paper's
// related work debates (Section II): the per-bit approach the paper
// adopts versus the per-subscriber approach of the access-network
// literature. It computes, from a simulated month:
//
//   - each quartile user's amortised per-subscriber cost per bit, showing
//     why per-user skew makes per-subscriber accounting misleading for
//     streaming studies;
//   - the marginal cost a sharing user pays per uploaded bit under each
//     accounting (2·l·γm per-bit vs 0 per-subscriber — the Nano Data
//     Centers argument for why online peers share "for free").
//
// It reads the shared replay's user ledgers.
func (s *Suite) Accounting() (*Table, error) {
	_, result, err := s.paperRun()
	if err != nil {
		return nil, err
	}

	// Per-user monthly volumes, for the skew argument.
	volumes := make([]float64, 0, len(result.Users))
	for _, u := range result.Users {
		volumes = append(volumes, u.DownloadedBits/8)
	}
	sort.Float64s(volumes)
	quartile := func(q float64) float64 {
		if len(volumes) == 0 {
			return 0
		}
		idx := int(q * float64(len(volumes)-1))
		return volumes[idx]
	}

	subscriber := energy.DefaultSubscriberModel()
	perBit := energy.Valancius()

	table := &Table{
		Title:   "Energy accounting: per-bit (paper) vs per-subscriber (related work)",
		Columns: []string{"metric", "per-bit", "per-subscriber"},
	}

	amortised := func(bytes float64) string {
		v, err := subscriber.AmortizedPerBit(bytes)
		if err != nil {
			return "n/a"
		}
		return fmt.Sprintf("%.0f nJ/bit", v)
	}
	table.Rows = append(table.Rows,
		[]string{
			"marginal cost per uploaded bit",
			fmt.Sprintf("%.0f nJ/bit (2lγm)", perBit.PeerModemPerBit()),
			"0 nJ/bit (modem already on)",
		},
		[]string{
			"p25 user's effective access cost",
			fmt.Sprintf("%.0f nJ/bit (ψs)", perBit.ServerPerBit()),
			amortised(quartile(0.25)),
		},
		[]string{
			"median user's effective access cost",
			fmt.Sprintf("%.0f nJ/bit (ψs)", perBit.ServerPerBit()),
			amortised(quartile(0.5)),
		},
		[]string{
			"p99 user's effective access cost",
			fmt.Sprintf("%.0f nJ/bit (ψs)", perBit.ServerPerBit()),
			amortised(quartile(0.99)),
		},
	)

	// Under per-subscriber accounting, hybrid delivery saves the server
	// side for free: savings equal the offload fraction of server-side
	// energy with no modem penalty at all.
	g := result.Total.Offload()
	perBitSavings := sim.Evaluate(result.Total, perBit).Savings
	table.Rows = append(table.Rows, []string{
		"system savings verdict",
		formatPercent(perBitSavings),
		formatPercent(g*perBit.PUE*(perBit.Server+perBit.CDNNetwork)/perBit.ServerPerBit()) + " (upload is free)",
	})
	return table, nil
}
