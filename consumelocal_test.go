package consumelocal_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"consumelocal"
)

func TestFacadeAnalyticalPath(t *testing.T) {
	model, err := consumelocal.NewModel(consumelocal.Valancius(),
		consumelocal.DefaultTopology().Probabilities())
	if err != nil {
		t.Fatal(err)
	}
	s := model.Savings(70, 1.0)
	if s < 0.35 || s > 0.50 {
		t.Errorf("popular-swarm savings = %v, want the paper's 35–48%% band", s)
	}
	if g := model.Offload(1, 1); math.Abs(g-math.Exp(-1)) > 1e-12 {
		t.Errorf("offload at c=1 = %v, want e^-1", g)
	}
}

func TestFacadeEndToEndPipeline(t *testing.T) {
	cfg := consumelocal.DefaultTraceConfig(0.001)
	cfg.Days = 5
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through CSV to exercise the IO surface.
	var buf bytes.Buffer
	if err := consumelocal.WriteTraceCSV(tr, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err = consumelocal.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.TotalBits <= 0 {
		t.Fatal("no traffic simulated")
	}

	for _, params := range consumelocal.BothEnergyModels() {
		report := consumelocal.EvaluateEnergy(res.Total, params)
		if report.Savings <= 0 || report.Savings >= 1 {
			t.Errorf("%s: system savings = %v, want within (0,1)", params.Name, report.Savings)
		}
		dist := consumelocal.CarbonCredits(res, params)
		if dist.Users == 0 {
			t.Errorf("%s: no users in carbon distribution", params.Name)
		}
	}
}

func TestFacadeCustomTopology(t *testing.T) {
	topo, err := consumelocal.NewTopology("tiny", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := consumelocal.NewModel(consumelocal.Baliga(), topo.Probabilities())
	if err != nil {
		t.Fatal(err)
	}
	// A 10-exchange metro localises much faster than London's 345.
	london, err := consumelocal.NewModel(consumelocal.Baliga(),
		consumelocal.DefaultTopology().Probabilities())
	if err != nil {
		t.Fatal(err)
	}
	if model.Savings(2, 1) <= london.Savings(2, 1) {
		t.Errorf("tiny metro should save more at small capacity: %v vs %v",
			model.Savings(2, 1), london.Savings(2, 1))
	}
}
