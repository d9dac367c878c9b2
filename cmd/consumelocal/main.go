// Command consumelocal regenerates the tables and figures of "Consume
// Local: Towards Carbon Free Content Delivery" (ICDCS 2018) from the
// reproduction's synthetic workload, simulator and closed-form model.
//
// Usage:
//
//	consumelocal <experiment> [flags]
//
// Experiments: table1, table3, table4, fig2, fig3, fig4, fig5, fig6,
// ablations, provisioning, live, accounting, simulate, replay,
// tracegen, loadtest, all.
//
// Flags:
//
//	-scale f    trace scale relative to the paper's dataset (default 0.01)
//	-days n     trace horizon in days (default 30)
//	-seed n     generator seed (default 1)
//	-ratio f    upload-to-bitrate ratio q/β (default 1.0)
//	-tsv dir    also write gnuplot-ready TSV files into dir
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"consumelocal/internal/experiments"
	"consumelocal/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "consumelocal:", err)
		os.Exit(1)
	}
}

// run dispatches the experiment named by args.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return errors.New("missing experiment name")
	}
	name := args[0]

	// The simulate, replay and loadtest subcommands have their
	// own flag sets (trace path, policy knobs, report output), so they
	// dispatch before the shared experiment flags parse.
	if name == "simulate" {
		return runSimulate(args[1:], out)
	}
	if name == "replay" {
		return runReplay(args[1:], out)
	}
	if name == "loadtest" {
		return runLoadtest(args[1:], out)
	}

	fs := flag.NewFlagSet("consumelocal", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.01, "trace scale relative to the paper's dataset")
	days := fs.Int("days", 30, "trace horizon in days")
	seed := fs.Int64("seed", 1, "trace generator seed")
	ratio := fs.Float64("ratio", 1.0, "upload-to-bitrate ratio q/beta")
	tsvDir := fs.String("tsv", "", "directory for gnuplot-ready TSV output")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.UploadRatio = *ratio

	sink := &outputSink{out: out, tsvDir: *tsvDir}

	switch name {
	case "table1":
		return runTable1(cfg, sink)
	case "table3":
		return sink.table("table3", experiments.Table3())
	case "table4":
		return sink.table("table4", experiments.Table4(cfg))
	case "fig2":
		return runFig2(cfg, sink)
	case "fig3":
		return runFig3(cfg, sink)
	case "fig4":
		return runFig4(cfg, sink)
	case "fig5":
		return runFig5(cfg, sink)
	case "fig6":
		return runFig6(cfg, sink)
	case "ablations":
		return runAblations(cfg, sink)
	case "provisioning":
		return runProvisioning(cfg, sink)
	case "live":
		return runLive(cfg, sink)
	case "accounting":
		return runAccounting(cfg, sink)
	case "tracegen":
		return runTracegen(cfg, out)
	case "all":
		return runAll(cfg, sink)
	default:
		usage(out)
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `usage: consumelocal <experiment> [flags]

experiments:
  table1     dataset description (paper Table I)
  table3     localisation probabilities (paper Table III)
  table4     energy parameters (paper Table IV)
  fig2       savings vs capacity, theory + simulation (paper Fig. 2)
  fig3       per-swarm capacity and savings CCDFs (paper Fig. 3)
  fig4       daily aggregate savings per ISP (paper Fig. 4)
  fig5       savings decomposition and CC transfer (paper Fig. 5)
  fig6       per-user carbon credit transfer CDF (paper Fig. 6)
  ablations  matching policy, swarm scope, budget, topology
  provisioning  CDN peak-capacity reduction from peer assistance
  live       live broadcasts vs catch-up viewing (future work)
  accounting per-bit vs per-subscriber energy accounting
  simulate   run the simulator on a trace CSV (-trace file, or stdin)
  replay     stream a trace CSV through the out-of-core engine with
             live windowed reports (-trace file, or stdin)
  tracegen   write a synthetic trace as CSV to stdout
  loadtest   hammer a consumelocald daemon with a concurrent client
             fleet and record latency percentiles, throughput and
             error counts (-addr or -daemon, -o BENCH_daemon.json)
  all        run everything

flags: -scale -days -seed -ratio -tsv`)
}

// outputSink renders results to the terminal and optionally mirrors them
// as TSV files.
type outputSink struct {
	out    io.Writer
	tsvDir string
}

func (s *outputSink) table(name string, t *experiments.Table) error {
	if err := t.RenderText(s.out); err != nil {
		return err
	}
	fmt.Fprintln(s.out)
	return s.mirror(name, t.WriteTSV)
}

func (s *outputSink) dataset(name string, d *experiments.Dataset) error {
	if err := d.RenderText(s.out); err != nil {
		return err
	}
	fmt.Fprintln(s.out)
	return s.mirror(name, d.WriteTSV)
}

// mirror writes one artefact into the TSV directory when configured.
func (s *outputSink) mirror(name string, write func(io.Writer) error) error {
	if s.tsvDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.tsvDir, 0o755); err != nil {
		return fmt.Errorf("tsv dir: %w", err)
	}
	path := filepath.Join(s.tsvDir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tsv file: %w", err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func runTable1(cfg experiments.Config, sink *outputSink) error {
	t, err := experiments.Table1(cfg)
	if err != nil {
		return err
	}
	return sink.table("table1", t)
}

func runFig2(cfg experiments.Config, sink *outputSink) error {
	res, err := experiments.Fig2(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("fig2_tiers", res.Tiers); err != nil {
		return err
	}
	for i := range res.Theory {
		if err := sink.dataset(fmt.Sprintf("fig2_theory_%d", i), &res.Theory[i]); err != nil {
			return err
		}
	}
	for i := range res.Simulation {
		if err := sink.dataset(fmt.Sprintf("fig2_sim_%d", i), &res.Simulation[i]); err != nil {
			return err
		}
	}
	return nil
}

func runFig3(cfg experiments.Config, sink *outputSink) error {
	res, err := experiments.Fig3(cfg)
	if err != nil {
		return err
	}
	if err := sink.dataset("fig3_capacity", &res.Capacities); err != nil {
		return err
	}
	if err := sink.dataset("fig3_savings", &res.Savings); err != nil {
		return err
	}
	return sink.table("fig3_summary", res.Summary)
}

func runFig4(cfg experiments.Config, sink *outputSink) error {
	res, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	for i := range res.Datasets {
		if err := sink.dataset(fmt.Sprintf("fig4_%d", i), &res.Datasets[i]); err != nil {
			return err
		}
	}
	return sink.table("fig4_summary", res.Summary)
}

func runFig5(cfg experiments.Config, sink *outputSink) error {
	res, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	for i := range res.Datasets {
		if err := sink.dataset(fmt.Sprintf("fig5_%d", i), &res.Datasets[i]); err != nil {
			return err
		}
	}
	return sink.table("fig5_summary", res.Summary)
}

func runFig6(cfg experiments.Config, sink *outputSink) error {
	res, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	if err := sink.dataset("fig6_cdf", &res.CDF); err != nil {
		return err
	}
	return sink.table("fig6_summary", res.Summary)
}

func runAblations(cfg experiments.Config, sink *outputSink) error {
	matching, err := experiments.AblationMatching(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("ablation_matching", matching); err != nil {
		return err
	}
	scope, err := experiments.AblationSwarmScope(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("ablation_scope", scope); err != nil {
		return err
	}
	budget, err := experiments.AblationBudget(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("ablation_budget", budget); err != nil {
		return err
	}
	participation, err := experiments.AblationParticipation(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("ablation_participation", participation); err != nil {
		return err
	}
	placement, err := experiments.AblationPlacement(cfg)
	if err != nil {
		return err
	}
	if err := sink.table("ablation_placement", placement); err != nil {
		return err
	}
	topo, err := experiments.AblationTopology(cfg)
	if err != nil {
		return err
	}
	if err := sink.dataset("ablation_topology", topo); err != nil {
		return err
	}
	sweep, err := experiments.ScaleSweep(cfg, nil)
	if err != nil {
		return err
	}
	return sink.table("scale_sweep", sweep)
}

func runProvisioning(cfg experiments.Config, sink *outputSink) error {
	table, err := experiments.Provisioning(cfg)
	if err != nil {
		return err
	}
	return sink.table("provisioning", table)
}

func runLive(cfg experiments.Config, sink *outputSink) error {
	table, err := experiments.Live(cfg)
	if err != nil {
		return err
	}
	return sink.table("live", table)
}

func runAccounting(cfg experiments.Config, sink *outputSink) error {
	table, err := experiments.Accounting(cfg)
	if err != nil {
		return err
	}
	return sink.table("accounting", table)
}

func runTracegen(cfg experiments.Config, out io.Writer) error {
	gc := trace.DefaultGeneratorConfig(cfg.Scale)
	gc.Days = cfg.Days
	gc.Seed = cfg.Seed
	tr, err := trace.Generate(gc)
	if err != nil {
		return err
	}
	return tr.WriteCSV(out)
}

func runAll(cfg experiments.Config, sink *outputSink) error {
	steps := []func() error{
		func() error { return runTable1(cfg, sink) },
		func() error { return sink.table("table3", experiments.Table3()) },
		func() error { return sink.table("table4", experiments.Table4(cfg)) },
		func() error { return runFig2(cfg, sink) },
		func() error { return runFig3(cfg, sink) },
		func() error { return runFig4(cfg, sink) },
		func() error { return runFig5(cfg, sink) },
		func() error { return runFig6(cfg, sink) },
		func() error { return runAblations(cfg, sink) },
		func() error { return runProvisioning(cfg, sink) },
		func() error { return runLive(cfg, sink) },
		func() error { return runAccounting(cfg, sink) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
