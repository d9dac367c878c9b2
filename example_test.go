package consumelocal_test

import (
	"context"
	"fmt"

	"consumelocal"
)

// ExampleNewModel evaluates the closed-form savings model at the paper's
// headline operating point: a popular content swarm (c = 70 concurrent
// viewers) with upload bandwidth matching the content bitrate.
func ExampleNewModel() {
	model, err := consumelocal.NewModel(consumelocal.Valancius(),
		consumelocal.DefaultTopology().Probabilities())
	if err != nil {
		panic(err)
	}
	fmt.Printf("offload G = %.2f\n", model.Offload(70, 1.0))
	fmt.Printf("savings S = %.2f\n", model.Savings(70, 1.0))
	// Output:
	// offload G = 0.99
	// savings S = 0.46
}

// ExampleModel_CarbonCreditTransfer shows the carbon credit transfer of
// Eq. 13: users start fully carbon negative and become carbon positive
// once enough traffic is offloaded.
func ExampleModel_CarbonCreditTransfer() {
	model, err := consumelocal.NewModel(consumelocal.Baliga(),
		consumelocal.DefaultTopology().Probabilities())
	if err != nil {
		panic(err)
	}
	fmt.Printf("no sharing: %.2f\n", model.CarbonCreditTransfer(0))
	g, _ := model.CarbonNeutralOffload()
	fmt.Printf("neutral at G = %.2f\n", g)
	fmt.Printf("full sharing: %+.2f\n", model.CarbonCreditTransfer(1))
	// Output:
	// no sharing: -1.00
	// neutral at G = 0.46
	// full sharing: +0.58
}

// ExampleReplay replays a deterministic synthetic workload and prices
// the outcome under both energy models.
func ExampleReplay() {
	cfg := consumelocal.DefaultTraceConfig(0.001)
	cfg.Days = 3
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		panic(err)
	}
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr))
	if err != nil {
		panic(err)
	}
	res, err := job.Result()
	if err != nil {
		panic(err)
	}
	for _, params := range consumelocal.BothEnergyModels() {
		report := consumelocal.EvaluateEnergy(res.Total, params)
		fmt.Printf("%s saves energy: %v\n", params.Name, report.Savings > 0)
	}
	// Output:
	// valancius saves energy: true
	// baliga saves energy: true
}
