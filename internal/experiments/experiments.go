// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own substrates: the synthetic trace
// generator, the streaming replay engine and the closed-form model.
//
// The paper replays one month of London sessions once and prices the
// recorded traffic under each energy model afterwards. A Suite does the
// same. It generates the base month (the synthetic-london generator at
// the run's scale, days and seed) at most once and replays it under the
// paper's simulation configuration (sim.DefaultConfig with users
// tracked) at most once; every experiment derives its figures from those
// two shared inputs, and only an arm that changes the workload or the
// simulator generates or replays anything of its own. Every experiment
// prices under both published energy models (energy.BothModels).
//
// Each experiment returns structured data (Table for tabular results,
// Dataset for plottable series) that renders both as human-readable text
// and as gnuplot-compatible TSV. The experiments, the artefacts they
// regenerate and the shared inputs they read are:
//
//	Table1                 Table I: dataset description           month (Sep-2013); generates a Jul-2014 month
//	Table3                 Table III: localisation probabilities  none
//	Table4                 Table IV: energy parameters            none
//	Fig2                   Fig. 2: savings vs capacity            month; replays three exemplar items per q/β
//	Fig3                   Fig. 3: capacity and savings CCDFs     month and replay
//	Fig4                   Fig. 4: daily savings per ISP          month and replay
//	Fig5                   Fig. 5: savings decomposition          none (closed form)
//	Fig6                   Fig. 6: per-user carbon credit CDF     replay (user ledgers)
//	Provisioning           CDN peak provisioning                  replay
//	Accounting             per-bit vs per-subscriber accounting   replay (user ledgers)
//	AblationMatching       matching policy                        replay; replays random matching
//	AblationSwarmScope     swarm scope                            replay; replays the three wider scopes
//	AblationBudget         Eq. 2 peer capacity budget             replay; replays without the cap
//	AblationParticipation  upload participation                   replay; replays 60%, 30% and 10%
//	AblationPlacement      placement skew vs the closed form      month and replay; generates two skewed months
//	PlacementGap           sim − theory gap at one skew           as AblationPlacement, one skew
//	AblationTopology       topology sensitivity of S(c)           none (closed form)
//	ScaleSweep             savings vs trace scale                 month and replay at the run's scale; generates the others
//	Live                   live vs catch-up viewing               none; generates and replays two traces of its own
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"consumelocal/internal/stats"
	"consumelocal/internal/trace"
)

// Config carries the shared knobs of the trace-driven experiments.
type Config struct {
	// Scale is the trace scale relative to the paper's London dataset
	// (1.0 = 3.3M users / 23.5M sessions).
	Scale float64
	// Days is the trace horizon in days.
	Days int
	// Seed drives the deterministic trace generator.
	Seed int64
	// UploadRatio is the default q/β for experiments that do not sweep it.
	UploadRatio float64
}

// DefaultConfig returns an experiment configuration that runs the full
// suite in well under a minute on a laptop while preserving the regimes
// the paper analyses.
func DefaultConfig() Config {
	return Config{
		Scale:       0.01,
		Days:        30,
		Seed:        1,
		UploadRatio: 1.0,
	}
}

// withDefaults fills zero fields of a config.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.UploadRatio <= 0 {
		c.UploadRatio = d.UploadRatio
	}
	return c
}

// monthConfig is the synthetic-london generator config at the given
// scale over the run's days and seed; at the run's own scale it
// describes the base month.
func (c Config) monthConfig(scale float64) trace.GeneratorConfig {
	gc := trace.DefaultGeneratorConfig(scale)
	gc.Seed = c.Seed
	gc.Days = c.Days
	return gc
}

// Table is a titled rectangular result.
type Table struct {
	// Title labels the table (e.g. "Table I: dataset description").
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the cells, one slice per row.
	Rows [][]string
}

// WriteTSV writes the table as tab-separated values with a header row.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// RenderText writes the table with aligned columns for terminals.
func (t *Table) RenderText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named curve or point cloud.
type Series struct {
	// Name labels the series (e.g. "theory q/β=0.6" or "sim ISP-1").
	Name string
	// Points are the (x, y) samples.
	Points []stats.Point
}

// Dataset is a titled collection of series sharing axes.
type Dataset struct {
	// Title labels the dataset (e.g. "Fig. 2: energy savings vs capacity").
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series are the member curves/point clouds.
	Series []Series
}

// WriteTSV writes every series as (series, x, y) rows.
func (d *Dataset) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", d.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "series\t%s\t%s\n", d.XLabel, d.YLabel); err != nil {
		return err
	}
	for _, s := range d.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s\t%s\t%s\n",
				s.Name, formatFloat(p.X), formatFloat(p.Y)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderText writes a compact summary of the dataset: per series, the
// sample count and the y-range.
func (d *Dataset) RenderText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s  [%s vs %s]\n", d.Title, d.YLabel, d.XLabel); err != nil {
		return err
	}
	for _, s := range d.Series {
		if len(s.Points) == 0 {
			if _, err := fmt.Fprintf(w, "  %-28s (empty)\n", s.Name); err != nil {
				return err
			}
			continue
		}
		minY, maxY := s.Points[0].Y, s.Points[0].Y
		for _, p := range s.Points {
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		last := s.Points[len(s.Points)-1]
		if _, err := fmt.Fprintf(w, "  %-28s n=%-4d y∈[%s, %s] last=(%s, %s)\n",
			s.Name, len(s.Points), formatFloat(minY), formatFloat(maxY),
			formatFloat(last.X), formatFloat(last.Y)); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders floats compactly for reports.
func formatFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', 6, 64)
}

// formatPercent renders a fraction as a percentage with one decimal.
func formatPercent(x float64) string {
	return strconv.FormatFloat(100*x, 'f', 1, 64) + "%"
}

// formatCount renders an integer with thousands separators for Table I
// style readability.
func formatCount(n int) string {
	s := strconv.Itoa(n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}
