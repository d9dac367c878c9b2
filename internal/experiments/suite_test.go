package experiments

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// renderer is a table or a dataset.
type renderer interface {
	RenderText(io.Writer) error
	WriteTSV(io.Writer) error
}

// one adapts an experiment that builds a single artefact.
func one[R renderer](r R, err error) ([]renderer, error) {
	return []renderer{r}, err
}

// traceArtefacts builds every artefact derived from a trace, in the order
// the consumelocal CLI prints them.
var traceArtefacts = []struct {
	name  string
	build func(*Suite) ([]renderer, error)
}{
	{"table1", func(s *Suite) ([]renderer, error) { return one(s.Table1()) }},
	{"fig2", func(s *Suite) ([]renderer, error) {
		res, err := s.Fig2()
		if err != nil {
			return nil, err
		}
		out := []renderer{res.Tiers}
		for i := range res.Theory {
			out = append(out, &res.Theory[i])
		}
		for i := range res.Simulation {
			out = append(out, &res.Simulation[i])
		}
		return out, nil
	}},
	{"fig3", func(s *Suite) ([]renderer, error) {
		res, err := s.Fig3()
		if err != nil {
			return nil, err
		}
		return []renderer{&res.Capacities, &res.Savings, res.Summary}, nil
	}},
	{"fig4", func(s *Suite) ([]renderer, error) {
		res, err := s.Fig4()
		if err != nil {
			return nil, err
		}
		out := []renderer{res.Summary}
		for i := range res.Datasets {
			out = append(out, &res.Datasets[i])
		}
		return out, nil
	}},
	{"fig6", func(s *Suite) ([]renderer, error) {
		res, err := s.Fig6()
		if err != nil {
			return nil, err
		}
		return []renderer{&res.CDF, res.Summary}, nil
	}},
	{"ablation_matching", func(s *Suite) ([]renderer, error) { return one(s.AblationMatching()) }},
	{"ablation_scope", func(s *Suite) ([]renderer, error) { return one(s.AblationSwarmScope()) }},
	{"ablation_budget", func(s *Suite) ([]renderer, error) { return one(s.AblationBudget()) }},
	{"ablation_participation", func(s *Suite) ([]renderer, error) { return one(s.AblationParticipation()) }},
	{"ablation_placement", func(s *Suite) ([]renderer, error) { return one(s.AblationPlacement()) }},
	// The sweep includes the suite's own scale, whose row reads the
	// shared month and replay.
	{"scale_sweep", func(s *Suite) ([]renderer, error) { return one(s.ScaleSweep([]float64{s.cfg.Scale / 2, s.cfg.Scale})) }},
	{"provisioning", func(s *Suite) ([]renderer, error) { return one(s.Provisioning()) }},
	{"live", func(s *Suite) ([]renderer, error) { return one(s.Live()) }},
	{"accounting", func(s *Suite) ([]renderer, error) { return one(s.Accounting()) }},
}

// render builds the i-th trace artefact from s and returns its text and
// TSV renderings.
func render(t *testing.T, s *Suite, i int) []byte {
	t.Helper()
	rs, err := traceArtefacts[i].build(s)
	if err != nil {
		t.Fatalf("%s: %v", traceArtefacts[i].name, err)
	}
	var buf bytes.Buffer
	for _, r := range rs {
		if err := r.RenderText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// Sharing the month and its replay must change no figure: every trace
// artefact renders the same bytes from a fresh suite of its own as from
// one suite walked forwards and from one walked backwards. Afterwards
// both walked suites must still hold the month and replay a fresh suite
// makes, so an experiment that mutates them (sorts the swarms, scales a
// user ledger) fails here even where no rendered byte shows it.
func TestSharingChangesNoFigure(t *testing.T) {
	cfg := Config{Scale: 0.0005, Days: 30, Seed: 5, UploadRatio: 1.0}
	fresh := make([][]byte, len(traceArtefacts))
	for i := range traceArtefacts {
		fresh[i] = render(t, NewSuite(cfg), i)
	}

	forwards, backwards := NewSuite(cfg), NewSuite(cfg)
	for i := range traceArtefacts {
		if !bytes.Equal(render(t, forwards, i), fresh[i]) {
			t.Errorf("%s: the suite walked forwards renders other bytes than a fresh suite", traceArtefacts[i].name)
		}
	}
	for i := len(traceArtefacts) - 1; i >= 0; i-- {
		if !bytes.Equal(render(t, backwards, i), fresh[i]) {
			t.Errorf("%s: the suite walked backwards renders other bytes than a fresh suite", traceArtefacts[i].name)
		}
	}

	wantMonth, wantRun, err := NewSuite(cfg).paperRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, walk := range []struct {
		name  string
		suite *Suite
	}{{"forwards", forwards}, {"backwards", backwards}} {
		month, run, err := walk.suite.paperRun()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(month, wantMonth) {
			t.Errorf("walked %s: an experiment changed the shared month", walk.name)
		}
		if !reflect.DeepEqual(run, wantRun) {
			t.Errorf("walked %s: an experiment changed the shared replay", walk.name)
		}
	}
}
