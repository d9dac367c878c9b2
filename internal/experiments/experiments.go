// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own substrates: the synthetic trace
// generator, the trace-driven simulator and the closed-form model.
//
// Each experiment returns structured data (Table for tabular results,
// Dataset for plottable series) that renders both as human-readable text
// and as gnuplot-compatible TSV. The mapping from experiment to paper
// artefact is:
//
//	Table1  — dataset description (users / IP addresses / sessions)
//	Table3  — per-layer localisation probabilities
//	Table4  — energy parameters of both models
//	Fig2    — energy savings vs capacity: theory curves + simulation dots
//	Fig3    — CCDF of per-swarm capacity and per-swarm savings
//	Fig4    — daily aggregate savings per ISP, simulation vs theory
//	Fig5    — savings decomposition vs capacity (end-to-end/CDN/user/CCT)
//	Fig6    — CDF of per-user carbon credit transfer
//
// plus the ablations DESIGN.md calls out (matching policy, ISP
// restriction, bitrate split, topology sensitivity).
package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/trace"
)

// replay runs tr under cfg on the streaming engine with one reporting
// window spanning the horizon: the experiments read only the final
// result, whose per-swarm tallies and total equal sim.Run bit for bit.
func replay(tr *trace.Trace, cfg sim.Config) (*sim.Result, error) {
	run, err := engine.Stream(context.Background(), engine.TraceSource(tr), engine.Config{Sim: cfg, WindowSec: tr.HorizonSec})
	if err != nil {
		return nil, err
	}
	return run.Result()
}

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
	// Models are the energy parameter sets to evaluate (defaults to both
	// published ones).
	Models []energy.Params
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
		Models:      energy.BothModels(),
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
	if len(c.Models) == 0 {
		c.Models = d.Models
	}
	return c
}

// generatorConfig builds the trace generator configuration for the
// experiment config.
func (c Config) generatorConfig(name string, seed int64) trace.GeneratorConfig {
	gc := trace.DefaultGeneratorConfig(c.Scale)
	gc.Name = name
	gc.Seed = seed
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
