// Package consumelocal is a reproduction of Raman, Karamshuk, Sastry,
// Secker and Chandaria, "Consume Local: Towards Carbon Free Content
// Delivery" (IEEE ICDCS 2018) as a reusable Go library.
//
// The paper shows that peer-assisted (hybrid) CDNs do not just save
// traffic: matching users with *nearby* peers shortens delivery paths and
// cuts the end-to-end carbon footprint of video streaming by 24–48%, and
// that transferring the CDN's savings to users as carbon credits can make
// most users carbon positive.
//
// The public API has three layers (see README.md for the finer-grained
// internal package layering):
//
//   - The closed-form analytical model (Model): energy savings S(c),
//     traffic offload G, and carbon credit transfer CCT as functions of
//     swarm capacity, upload/bitrate ratio, energy parameters (Table IV)
//     and ISP topology (Table III).
//   - The replay pipeline (Replay): one context-aware source→engine→sink
//     API for every trace-driven study. A Source yields sessions in
//     start order (an in-memory trace, a streamed CSV, the synthetic
//     generator run live, or an IngestSource fed session by session as
//     a broadcast happens, with watermark-driven window settlement);
//     the out-of-core streaming engine replays them; Options pick the
//     worker count, reporting window and attached Sinks (NDJSON
//     snapshots, TSV tallies, Prometheus-style metrics). The returned
//     Job reports windowed progress, supports cancellation, and
//     produces per-swarm results bit-for-bit identical to the serial
//     reference simulator at any worker count. It also powers the
//     long-running consumelocald job-manager service.
//   - The experiment harnesses (package internal/experiments, reachable
//     through the consumelocal CLI and the root benchmarks): regenerate
//     every table and figure of the paper's evaluation.
//
// # Quick start
//
//	model, err := consumelocal.NewModel(consumelocal.Valancius(),
//	    consumelocal.DefaultTopology().Probabilities())
//	if err != nil { ... }
//	s := model.Savings(10, 1.0) // savings of a 10-user swarm at q/β = 1
//
// For trace-driven studies, build a Source and replay it:
//
//	src, err := consumelocal.GeneratorSource(consumelocal.DefaultTraceConfig(0.01))
//	job, err := consumelocal.Replay(ctx, src,
//	    consumelocal.WithUploadRatio(1.0),
//	    consumelocal.WithWindow(3600))
//	for snap := range job.Snapshots() {
//	    // live windowed progress; job.Cancel() aborts mid-stream
//	}
//	res, err := job.Result()
//	report := consumelocal.EvaluateEnergy(res.Total, consumelocal.Baliga())
package consumelocal

import (
	"io"

	"consumelocal/internal/carbon"
	"consumelocal/internal/cdn"
	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/sim"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// Re-exported core types. The aliases make the library usable without
// importing internal packages, which the Go toolchain would reject outside
// this module anyway.
type (
	// EnergyParams is one per-bit energy parameter set (paper Table IV).
	EnergyParams = energy.Params
	// Layer identifies a P2P localisation layer of the metro tree.
	Layer = energy.Layer
	// Model is the closed-form savings model (paper Eq. 12 / 13).
	Model = core.Model
	// SavingsBreakdown bundles the Fig. 5 curves at one capacity.
	SavingsBreakdown = core.SavingsBreakdown
	// Topology is an ISP metropolitan tree (paper Fig. 1).
	Topology = topology.Tree
	// TopologyProbabilities are per-layer localisation probabilities
	// (paper Table III).
	TopologyProbabilities = topology.Probabilities
	// Trace is a session trace (the simulator's workload).
	Trace = trace.Trace
	// Session is one playback session of a trace.
	Session = trace.Session
	// TraceConfig parameterises the synthetic trace generator.
	TraceConfig = trace.GeneratorConfig
	// LiveTraceConfig parameterises the live-broadcast workload
	// generator (the paper's future-work live-streaming scenario).
	LiveTraceConfig = trace.LiveConfig
	// LiveEvent is one scheduled broadcast in a LiveTraceConfig.
	LiveEvent = trace.LiveEvent
	// TraceSummary is the Table I row of a trace.
	TraceSummary = trace.Summary
	// BitrateClass buckets sessions by streaming bitrate.
	BitrateClass = trace.BitrateClass
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of a simulation run.
	SimResult = sim.Result
	// Tally is a delivered-traffic accounting unit.
	Tally = sim.Tally
	// EnergyReport prices a tally under one parameter set.
	EnergyReport = sim.EnergyReport
	// UserStats is a per-user byte ledger.
	UserStats = sim.UserStats
	// CarbonDistribution summarises per-user CCT (paper Fig. 6).
	CarbonDistribution = carbon.Distribution
	// TraceMeta is the trace-level metadata a streaming consumer has in
	// hand before sessions flow past it.
	TraceMeta = trace.Meta
	// TraceScanner iterates a CSV trace one session at a time without
	// materialising the full session list.
	TraceScanner = trace.Scanner
	// StreamSnapshot is one windowed progress report of a replay.
	StreamSnapshot = engine.Snapshot
)

// Bitrate classes of the synthetic workload.
const (
	// BitrateMobile is the low-bitrate mobile representation (800 kb/s).
	BitrateMobile = trace.BitrateMobile
	// BitrateSD is the most common catch-up TV bitrate (1.5 Mb/s).
	BitrateSD = trace.BitrateSD
	// BitrateHD is the large-screen representation (3 Mb/s).
	BitrateHD = trace.BitrateHD
)

// Valancius returns the Valancius et al. energy parameters of Table IV.
func Valancius() EnergyParams { return energy.Valancius() }

// Baliga returns the Baliga et al. energy parameters of Table IV.
func Baliga() EnergyParams { return energy.Baliga() }

// BothEnergyModels returns the two published parameter sets in paper
// order.
func BothEnergyModels() []EnergyParams { return energy.BothModels() }

// DefaultTopology returns the London metropolitan tree of Table III
// (345 exchange points, 9 PoPs, 1 core router).
func DefaultTopology() *Topology { return topology.DefaultLondon() }

// NewTopology builds a custom metropolitan tree.
func NewTopology(name string, exchanges, pops int) (*Topology, error) {
	return topology.New(name, exchanges, pops)
}

// NewModel builds the closed-form savings model from energy parameters
// and topology localisation probabilities.
func NewModel(params EnergyParams, probs TopologyProbabilities) (*Model, error) {
	return core.New(params, probs)
}

// DefaultTraceConfig returns a synthetic-trace configuration scaled
// relative to the paper's London dataset (scale 1.0 ≈ 3.3M users, 23.5M
// sessions, 30 days).
func DefaultTraceConfig(scale float64) TraceConfig {
	return trace.DefaultGeneratorConfig(scale)
}

// GenerateTrace builds a deterministic synthetic trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// DefaultLiveTraceConfig returns an evening of live television — three
// broadcasts of growing audience — scaled like DefaultTraceConfig.
func DefaultLiveTraceConfig(scale float64) LiveTraceConfig {
	return trace.DefaultLiveConfig(scale)
}

// GenerateLiveTrace builds a deterministic live-broadcast trace: the
// materialised form of the schedule a live ingest replays as it happens.
func GenerateLiveTrace(cfg LiveTraceConfig) (*Trace, error) { return trace.GenerateLive(cfg) }

// ReadTraceCSV loads a trace previously written with WriteTraceCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// WriteTraceCSV serialises a trace as CSV with a metadata header.
func WriteTraceCSV(t *Trace, w io.Writer) error { return t.WriteCSV(w) }

// DefaultSimConfig returns the paper's simulation configuration
// (ISP-friendly bitrate-split swarms, locality-first matching, the
// (L−1)·q peer budget) at the given upload-to-bitrate ratio q/β.
func DefaultSimConfig(uploadRatio float64) SimConfig {
	return sim.DefaultConfig(uploadRatio)
}

// NewTraceScanner opens a streaming iterator over a CSV trace: the
// out-of-core counterpart of ReadTraceCSV.
func NewTraceScanner(r io.Reader) (*TraceScanner, error) { return trace.NewScanner(r) }

// EvaluateEnergy prices a tally under the given energy parameters,
// returning baseline (pure CDN) and hybrid energy plus the fractional
// savings (paper Eq. 1).
func EvaluateEnergy(t Tally, params EnergyParams) EnergyReport {
	return sim.Evaluate(t, params)
}

// CarbonCredits computes the per-user carbon credit transfer distribution
// of a simulation run (paper Fig. 6). The simulation must have been run
// with user tracking enabled (the default).
func CarbonCredits(res *SimResult, params EnergyParams) CarbonDistribution {
	return carbon.Distribute(res.Users, params)
}

// ProvisioningReport quantifies the CDN capacity a deployment must
// provision for peak load, with and without peer assistance.
type ProvisioningReport = cdn.ProvisioningReport

// CDNProvisioning computes the peak-provisioning report of a simulation
// run: how much server capacity peer assistance saves at the busiest
// time, the operator benefit the paper's introduction motivates.
func CDNProvisioning(res *SimResult) (ProvisioningReport, error) {
	return cdn.Provisioning(res)
}
