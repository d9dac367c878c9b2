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
	suite := experiments.NewSuite(cfg)

	if name == "tracegen" {
		month, err := suite.Month()
		if err != nil {
			return err
		}
		return month.WriteCSV(out)
	}
	sink := &outputSink{out: out, tsvDir: *tsvDir}
	if name == "all" {
		for _, e := range suiteExperiments {
			if err := e.run(suite, sink); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range suiteExperiments {
		if e.name == name {
			return e.run(suite, sink)
		}
	}
	usage(out)
	return fmt.Errorf("unknown experiment %q", name)
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
  tracegen   write the experiments' synthetic month as CSV to stdout
  loadtest   hammer a consumelocald daemon with a concurrent client
             fleet and report latency percentiles, throughput and
             error counts (-addr or -daemon; -o FILE writes the report)
  all        run every experiment over one shared month and replay

flags: -scale -days -seed -ratio -tsv`)
}

// experiment is one subcommand of the experiment suite: its name and how
// it renders its artefacts from a suite.
type experiment struct {
	name string
	run  func(*experiments.Suite, *outputSink) error
}

// suiteExperiments lists the experiments in the order `all` runs them.
var suiteExperiments = []experiment{
	{"table1", func(s *experiments.Suite, out *outputSink) error {
		return emit(out, "table1", s.Table1)
	}},
	{"table3", func(_ *experiments.Suite, out *outputSink) error {
		return out.write("table3", experiments.Table3())
	}},
	{"table4", func(_ *experiments.Suite, out *outputSink) error {
		return out.write("table4", experiments.Table4())
	}},
	{"fig2", func(s *experiments.Suite, out *outputSink) error {
		res, err := s.Fig2()
		if err != nil {
			return err
		}
		if err := out.write("fig2_tiers", res.Tiers); err != nil {
			return err
		}
		if err := out.datasets("fig2_theory", res.Theory); err != nil {
			return err
		}
		return out.datasets("fig2_sim", res.Simulation)
	}},
	{"fig3", func(s *experiments.Suite, out *outputSink) error {
		res, err := s.Fig3()
		if err != nil {
			return err
		}
		if err := out.write("fig3_capacity", &res.Capacities); err != nil {
			return err
		}
		if err := out.write("fig3_savings", &res.Savings); err != nil {
			return err
		}
		return out.write("fig3_summary", res.Summary)
	}},
	{"fig4", func(s *experiments.Suite, out *outputSink) error {
		res, err := s.Fig4()
		if err != nil {
			return err
		}
		if err := out.datasets("fig4", res.Datasets); err != nil {
			return err
		}
		return out.write("fig4_summary", res.Summary)
	}},
	{"fig5", func(s *experiments.Suite, out *outputSink) error {
		res, err := s.Fig5()
		if err != nil {
			return err
		}
		if err := out.datasets("fig5", res.Datasets); err != nil {
			return err
		}
		return out.write("fig5_summary", res.Summary)
	}},
	{"fig6", func(s *experiments.Suite, out *outputSink) error {
		res, err := s.Fig6()
		if err != nil {
			return err
		}
		if err := out.write("fig6_cdf", &res.CDF); err != nil {
			return err
		}
		return out.write("fig6_summary", res.Summary)
	}},
	{"ablations", func(s *experiments.Suite, out *outputSink) error {
		if err := emit(out, "ablation_matching", s.AblationMatching); err != nil {
			return err
		}
		if err := emit(out, "ablation_scope", s.AblationSwarmScope); err != nil {
			return err
		}
		if err := emit(out, "ablation_budget", s.AblationBudget); err != nil {
			return err
		}
		if err := emit(out, "ablation_participation", s.AblationParticipation); err != nil {
			return err
		}
		if err := emit(out, "ablation_placement", s.AblationPlacement); err != nil {
			return err
		}
		if err := emit(out, "ablation_topology", s.AblationTopology); err != nil {
			return err
		}
		return emit(out, "scale_sweep", func() (*experiments.Table, error) { return s.ScaleSweep(nil) })
	}},
	{"provisioning", func(s *experiments.Suite, out *outputSink) error {
		return emit(out, "provisioning", s.Provisioning)
	}},
	{"live", func(s *experiments.Suite, out *outputSink) error {
		return emit(out, "live", s.Live)
	}},
	{"accounting", func(s *experiments.Suite, out *outputSink) error {
		return emit(out, "accounting", s.Accounting)
	}},
}

// artefact is a table or a dataset: it renders as text and as TSV.
type artefact interface {
	RenderText(io.Writer) error
	WriteTSV(io.Writer) error
}

// emit builds one artefact and writes it under name.
func emit[A artefact](out *outputSink, name string, build func() (A, error)) error {
	a, err := build()
	if err != nil {
		return err
	}
	return out.write(name, a)
}

// outputSink renders results to the terminal and optionally mirrors them
// as TSV files.
type outputSink struct {
	out    io.Writer
	tsvDir string
}

// write renders one artefact as text and mirrors it as name.tsv.
func (s *outputSink) write(name string, a artefact) error {
	if err := a.RenderText(s.out); err != nil {
		return err
	}
	fmt.Fprintln(s.out)
	return s.mirror(name, a.WriteTSV)
}

// datasets writes one dataset per energy model as prefix_0, prefix_1, ...
func (s *outputSink) datasets(prefix string, ds []experiments.Dataset) error {
	for i := range ds {
		if err := s.write(fmt.Sprintf("%s_%d", prefix, i), &ds[i]); err != nil {
			return err
		}
	}
	return nil
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
