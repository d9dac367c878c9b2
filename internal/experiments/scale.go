package experiments

import (
	"fmt"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
)

// ScaleSweep quantifies how the aggregate savings depend on the trace
// scale. Downscaling the workload shrinks every swarm's capacity (fewer
// sessions per item), pushing the mid-tail of the catalogue below the
// c ≈ 1 sharing threshold; the aggregate savings therefore converge to
// the paper's full-scale levels (≈30% Valancius / ≈18% Baliga for the
// biggest ISP) from below as the scale grows. This experiment makes that
// convergence explicit so that reduced-scale results can be read
// correctly. With no scales given it sweeps ½, 1, 2 and 5 times the
// suite's scale, dropping any above the paper's full size (scale 1). The
// row at the suite's own scale reads the shared month and replay; every
// other scale generates and replays a month of its own.
func (s *Suite) ScaleSweep(scales []float64) (*Table, error) {
	if len(scales) == 0 {
		scales = sweepScales(s.cfg.Scale)
	}

	table := &Table{
		Title:   "Scale sweep: aggregate savings vs trace scale",
		Columns: []string{"scale", "sessions", "offload", "ISP-1 valancius", "ISP-1 baliga"},
	}
	for _, scale := range scales {
		tr, result, err := s.workload(scale, 0)
		if err != nil {
			return nil, err
		}
		isp1 := result.ISPTotals()[0]
		row := []string{
			fmt.Sprintf("%g", scale),
			formatCount(len(tr.Sessions)),
			formatPercent(result.Total.Offload()),
		}
		for _, params := range energy.BothModels() {
			row = append(row, formatPercent(sim.Evaluate(isp1, params).Savings))
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// sweepScales is ScaleSweep's default ladder around scale: ½, 1, 2 and
// 5 times it, capped at the paper's full size.
func sweepScales(scale float64) []float64 {
	var out []float64
	for _, f := range []float64{0.5, 1, 2, 5} {
		if f*scale <= 1 {
			out = append(out, f*scale)
		}
	}
	return out
}
