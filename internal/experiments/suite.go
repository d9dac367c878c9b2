package experiments

import (
	"context"

	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/sim"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// Suite runs the experiments of one configuration over a shared base
// month and its shared replay under the paper's simulation config. It
// generates the month on the first experiment that reads it and replays
// it on the first that reads the replay, so each is made at most once
// however many experiments run. Experiments treat both as read-only:
// the order they run in changes no figure. A Suite is not safe for
// concurrent use.
type Suite struct {
	cfg   Config
	month *trace.Trace
	paper *sim.Result
}

// NewSuite returns a suite for cfg, with zero fields filled from
// DefaultConfig. It generates and replays nothing until an experiment
// needs it.
func NewSuite(cfg Config) *Suite {
	return &Suite{cfg: cfg.withDefaults()}
}

// Month returns the base month: the synthetic-london generator at the
// suite's scale, days and seed.
func (s *Suite) Month() (*trace.Trace, error) {
	if s.month == nil {
		tr, err := trace.Generate(s.cfg.monthConfig(s.cfg.Scale))
		if err != nil {
			return nil, err
		}
		s.month = tr
	}
	return s.month, nil
}

// paperRun returns the base month and its replay under the paper's
// simulation config. The replay tracks users, which changes no swarm,
// day or total tally, so the one replay serves the figures that price
// traffic and those that price user ledgers.
func (s *Suite) paperRun() (*trace.Trace, *sim.Result, error) {
	tr, err := s.Month()
	if err != nil {
		return nil, nil, err
	}
	if s.paper == nil {
		res, err := replay(tr, sim.DefaultConfig(s.cfg.UploadRatio))
		if err != nil {
			return nil, nil, err
		}
		s.paper = res
	}
	return tr, s.paper, nil
}

// armConfig is the paper's simulation config for an arm's own replay,
// whose user ledgers no experiment reads.
func (s *Suite) armConfig() sim.Config {
	cfg := sim.DefaultConfig(s.cfg.UploadRatio)
	cfg.TrackUsers = false
	return cfg
}

// simulate returns the base month's replay under the paper's config with
// change applied. A nil change is the paper's config: the shared replay.
func (s *Suite) simulate(change func(*sim.Config)) (*sim.Result, error) {
	if change == nil {
		_, res, err := s.paperRun()
		return res, err
	}
	tr, err := s.Month()
	if err != nil {
		return nil, err
	}
	cfg := s.armConfig()
	change(&cfg)
	return replay(tr, cfg)
}

// workload returns the month generated at the given scale and exchange
// skew and its replay under the paper's config. The base month's scale
// with skew 0 is the shared month and replay; any other arm generates
// and replays its own.
func (s *Suite) workload(scale, skew float64) (*trace.Trace, *sim.Result, error) {
	if scale == s.cfg.Scale && skew == 0 {
		return s.paperRun()
	}
	gc := s.cfg.monthConfig(scale)
	gc.ExchangeSkew = skew
	tr, err := trace.Generate(gc)
	if err != nil {
		return nil, nil, err
	}
	res, err := replay(tr, s.armConfig())
	if err != nil {
		return nil, nil, err
	}
	return tr, res, nil
}

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

// londonModels builds the closed form of each energy model on the
// paper's London tree.
func londonModels(models []energy.Params) ([]*core.Model, error) {
	probs := topology.DefaultLondon().Probabilities()
	out := make([]*core.Model, len(models))
	for i, params := range models {
		model, err := core.New(params, probs)
		if err != nil {
			return nil, err
		}
		out[i] = model
	}
	return out, nil
}
