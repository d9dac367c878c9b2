package experiments

import (
	"fmt"

	"consumelocal/internal/carbon"
	"consumelocal/internal/energy"
)

// Fig6Result holds the per-user carbon credit transfer distribution of
// Fig. 6.
type Fig6Result struct {
	// CDF holds one per-user CCT CDF series per energy model.
	CDF Dataset
	// Summary quotes the carbon positive population share per model.
	Summary *Table
}

// Fig6 regenerates Fig. 6: the distribution of per-user carbon footprints
// after the CDN's savings are transferred to uploading users as carbon
// credits, from the shared replay's user ledgers.
func (s *Suite) Fig6() (*Fig6Result, error) {
	_, result, err := s.paperRun()
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{
		CDF: Dataset{
			Title:  "Fig. 6: CDF of per-user carbon credit transfer",
			XLabel: "per user carbon credit transfer",
			YLabel: "cdf",
		},
		Summary: &Table{
			Title:   "Fig. 6 summary",
			Columns: []string{"metric"},
		},
	}

	positiveRow := []string{"carbon positive users"}
	medianRow := []string{"median per-user CCT"}
	systemRow := []string{"collective CCT (all users)"}
	for _, params := range energy.BothModels() {
		dist := carbon.Distribute(result.Users, params)
		res.CDF.Series = append(res.CDF.Series, Series{Name: params.Name, Points: dist.CDF})

		res.Summary.Columns = append(res.Summary.Columns, params.Name)
		positiveRow = append(positiveRow, formatPercent(dist.CarbonPositive))
		medianRow = append(medianRow, fmt.Sprintf("%.3f", dist.Median))
		systemRow = append(systemRow, fmt.Sprintf("%.3f",
			carbon.Transfer(result.Users, params).NetNormalized))
	}
	res.Summary.Rows = append(res.Summary.Rows, positiveRow, medianRow, systemRow)
	return res, nil
}
