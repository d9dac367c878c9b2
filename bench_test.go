// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment harness at
// a reduced trace scale and reports, through custom metrics, the headline
// quantity of that artefact — so a `go test -bench=.` run doubles as a
// compact reproduction report:
//
//	BenchmarkTable1DatasetSummary      users/IPs/sessions of the dataset
//	BenchmarkTable3Localisation        per-layer localisation probabilities
//	BenchmarkTable4EnergyParams        ψs per model
//	BenchmarkFig2SavingsVsCapacity     popular-item savings per model
//	BenchmarkFig3SwarmDistributions    median per-swarm savings
//	BenchmarkFig4DailySavings          ISP-1 month-average savings
//	BenchmarkFig5SavingsDecomposition  asymptotic CCT per model
//	BenchmarkFig6UserCCT               carbon positive user share
//	BenchmarkAblation*                 design-choice ablations
//	BenchmarkCDNPeakProvisioning       peak server-capacity reduction
//	BenchmarkLiveVsCatchUp             live-broadcast savings (future work)
//
// Reported custom metrics are fractions (e.g. 0.30 = 30% savings) unless
// the metric name says otherwise.
package consumelocal_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"consumelocal/internal/carbon"
	"consumelocal/internal/chunksim"
	"consumelocal/internal/core"
	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/experiments"
	"consumelocal/internal/matching"
	"consumelocal/internal/mminf"
	"consumelocal/internal/sim"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// benchConfig is the shared reduced-scale experiment configuration. Scale
// 0.004 keeps a full -bench=. sweep under a couple of minutes while
// preserving the qualitative shape of every figure; rerun with the
// consumelocal CLI at -scale 0.05 or above for levels closer to the
// paper's full-size dataset.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.004
	cfg.Days = 14
	return cfg
}

func BenchmarkTable1DatasetSummary(b *testing.B) {
	var users, sessions int
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).Table1()
		if err != nil {
			b.Fatal(err)
		}
		users = parseBenchCount(b, table.Rows[0][1])
		sessions = parseBenchCount(b, table.Rows[2][1])
	}
	b.ReportMetric(float64(users), "users")
	b.ReportMetric(float64(sessions), "sessions")
}

func BenchmarkTable3Localisation(b *testing.B) {
	var pexp float64
	for i := 0; i < b.N; i++ {
		probs := topology.DefaultLondon().Probabilities()
		pexp = probs.Exchange
	}
	b.ReportMetric(pexp, "p_exchange")
}

func BenchmarkTable4EnergyParams(b *testing.B) {
	var psiV, psiB float64
	for i := 0; i < b.N; i++ {
		psiV = energy.Valancius().ServerPerBit()
		psiB = energy.Baliga().ServerPerBit()
	}
	b.ReportMetric(psiV, "psi_s_valancius_nJ/bit")
	b.ReportMetric(psiB, "psi_s_baliga_nJ/bit")
}

func BenchmarkFig2SavingsVsCapacity(b *testing.B) {
	var valancius, baliga float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(benchConfig()).Fig2()
		if err != nil {
			b.Fatal(err)
		}
		valancius = maxSimSavings(res.Simulation[0], "sim popular")
		baliga = maxSimSavings(res.Simulation[1], "sim popular")
	}
	b.ReportMetric(valancius, "popular_savings_valancius")
	b.ReportMetric(baliga, "popular_savings_baliga")
}

// maxSimSavings extracts the best simulated savings of a tier.
func maxSimSavings(ds experiments.Dataset, prefix string) float64 {
	best := 0.0
	for _, s := range ds.Series {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		for _, p := range s.Points {
			if p.Y > best {
				best = p.Y
			}
		}
	}
	return best
}

func BenchmarkFig3SwarmDistributions(b *testing.B) {
	var medianV float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(benchConfig()).Fig3()
		if err != nil {
			b.Fatal(err)
		}
		medianV = parseBenchPercent(b, res.Summary.Rows[0][1]) / 100
	}
	b.ReportMetric(medianV, "median_swarm_savings_valancius")
}

func BenchmarkFig4DailySavings(b *testing.B) {
	var isp1V, isp1B float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(benchConfig()).Fig4()
		if err != nil {
			b.Fatal(err)
		}
		isp1V = parseBenchPercent(b, res.Summary.Rows[0][2]) / 100
		isp1B = parseBenchPercent(b, res.Summary.Rows[len(res.Summary.Rows)/2][2]) / 100
	}
	b.ReportMetric(isp1V, "isp1_savings_valancius")
	b.ReportMetric(isp1B, "isp1_savings_baliga")
}

func BenchmarkFig5SavingsDecomposition(b *testing.B) {
	var cctV, cctB float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(experiments.Config{}).Fig5()
		if err != nil {
			b.Fatal(err)
		}
		cctV = parseBenchPercent(b, res.Summary.Rows[1][1]) / 100
		cctB = parseBenchPercent(b, res.Summary.Rows[1][2]) / 100
	}
	b.ReportMetric(cctV, "asymptotic_cct_valancius")
	b.ReportMetric(cctB, "asymptotic_cct_baliga")
}

func BenchmarkFig6UserCCT(b *testing.B) {
	var positiveV, positiveB float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(benchConfig()).Fig6()
		if err != nil {
			b.Fatal(err)
		}
		positiveV = parseBenchPercent(b, res.Summary.Rows[0][1]) / 100
		positiveB = parseBenchPercent(b, res.Summary.Rows[0][2]) / 100
	}
	b.ReportMetric(positiveV, "carbon_positive_valancius")
	b.ReportMetric(positiveB, "carbon_positive_baliga")
}

func BenchmarkAblationMatchingPolicy(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).AblationMatching()
		if err != nil {
			b.Fatal(err)
		}
		local := parseBenchPercent(b, table.Rows[0][2])
		random := parseBenchPercent(b, table.Rows[1][2])
		gap = (local - random) / 100
	}
	b.ReportMetric(gap, "locality_advantage_valancius")
}

func BenchmarkAblationISPRestriction(b *testing.B) {
	var restricted, cityWide float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).AblationSwarmScope()
		if err != nil {
			b.Fatal(err)
		}
		restricted = parseBenchPercent(b, table.Rows[0][1]) / 100
		cityWide = parseBenchPercent(b, table.Rows[2][1]) / 100
	}
	b.ReportMetric(restricted, "offload_isp_friendly")
	b.ReportMetric(cityWide, "offload_city_wide")
}

func BenchmarkAblationBitrateSplit(b *testing.B) {
	var split, mixed float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).AblationSwarmScope()
		if err != nil {
			b.Fatal(err)
		}
		split = parseBenchPercent(b, table.Rows[0][1]) / 100
		mixed = parseBenchPercent(b, table.Rows[1][1]) / 100
	}
	b.ReportMetric(split, "offload_bitrate_split")
	b.ReportMetric(mixed, "offload_bitrate_mixed")
}

func BenchmarkCDNPeakProvisioning(b *testing.B) {
	var peakReduction float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).Provisioning()
		if err != nil {
			b.Fatal(err)
		}
		peakReduction = parseBenchPercent(b, table.Rows[0][3]) / 100
	}
	b.ReportMetric(peakReduction, "peak_reduction")
}

func BenchmarkAblationParticipation(b *testing.B) {
	var full, akamai float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).AblationParticipation()
		if err != nil {
			b.Fatal(err)
		}
		full = parseBenchPercent(b, table.Rows[0][2]) / 100
		akamai = parseBenchPercent(b, table.Rows[2][2]) / 100
	}
	b.ReportMetric(full, "savings_full_participation")
	b.ReportMetric(akamai, "savings_30pct_participation")
}

func BenchmarkLiveVsCatchUp(b *testing.B) {
	var liveSavings float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewSuite(benchConfig()).Live()
		if err != nil {
			b.Fatal(err)
		}
		liveSavings = parseBenchPercent(b, table.Rows[0][3]) / 100
	}
	b.ReportMetric(liveSavings, "live_savings_valancius")
}

func BenchmarkAblationTopology(b *testing.B) {
	var series int
	for i := 0; i < b.N; i++ {
		ds, err := experiments.NewSuite(experiments.Config{}).AblationTopology()
		if err != nil {
			b.Fatal(err)
		}
		series = len(ds.Series)
	}
	b.ReportMetric(float64(series), "topologies")
}

// Micro-benchmarks of the performance-critical substrates.

func BenchmarkClosedFormSavings(b *testing.B) {
	model := core.MustNew(energy.Valancius(), topology.DefaultLondon().Probabilities())
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += model.Savings(float64(i%100)+0.1, 1.0)
	}
	_ = sink
}

func BenchmarkLayerExpectation(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := mminf.LayerExpectation(1.0/345, float64(i%50)+0.5)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorMonth(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 14
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	simCfg := sim.DefaultConfig(1)
	simCfg.TrackUsers = false
	b.ResetTimer()
	var offload float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, simCfg)
		if err != nil {
			b.Fatal(err)
		}
		offload = res.Total.Offload()
	}
	b.ReportMetric(offload, "offload")
	b.ReportMetric(float64(len(tr.Sessions))/1000, "ksessions")
}

func BenchmarkMatchingLocalityFirst(b *testing.B) {
	benchmarkPolicy(b, matching.LocalityFirst{})
}

func BenchmarkMatchingRandom(b *testing.B) {
	benchmarkPolicy(b, matching.Random{})
}

// benchmarkPolicy matches a 64-peer interval repeatedly.
func benchmarkPolicy(b *testing.B, policy matching.Policy) {
	b.Helper()
	const n = 64
	peers := make([]matching.Peer, n)
	demands := make([]float64, n)
	caps := make([]float64, n)
	topo := topology.DefaultLondon()
	for i := range peers {
		loc := topo.PlaceDeterministic(uint64(i))
		peers[i] = matching.Peer{User: uint32(i), Exchange: loc.Exchange, PoP: loc.PoP}
		demands[i] = 1.5e6 * 10
		caps[i] = 1.5e6 * 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Match(peers, demands, caps, float64(n-1)*1.5e7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream measures the streaming replay engine end to end —
// CSV parsing included — on the same 14-day workload as
// BenchmarkSimulatorMonth, reporting throughput in sessions per second
// so the two paths can be compared directly: the streamed replay trades
// a little per-session overhead (event scheduling, windowed reporting)
// for bounded memory and live progress.
func BenchmarkStream(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 14
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	streamCfg := engine.Config{Sim: sim.DefaultConfig(1), WindowSec: 24 * 3600, Workers: 4}
	streamCfg.Sim.TrackUsers = false
	b.SetBytes(int64(csv.Len()))
	b.ResetTimer()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sc, err := trace.NewScanner(bytes.NewReader(csv.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		run, err := engine.Stream(context.Background(), sc, streamCfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(len(tr.Sessions))/1000, "ksessions")
	b.ReportMetric(float64(len(tr.Sessions)*b.N)/elapsed.Seconds(), "sessions/s")
}

func BenchmarkChunkSimulator(b *testing.B) {
	// One medium Poisson swarm at chunk granularity.
	rng := rand.New(rand.NewSource(3))
	var sessions []trace.Session
	now := 0.0
	const horizon = int64(2 * 86400)
	for user := uint32(0); ; user++ {
		now += rng.ExpFloat64() / 0.004
		start := int64(now) / 10 * 10
		if start >= horizon {
			break
		}
		dur := int32(rng.ExpFloat64()*150) * 10
		if dur < 10 {
			dur = 10
		}
		if start+int64(dur) > horizon {
			continue
		}
		sessions = append(sessions, trace.Session{
			UserID: user, ContentID: 0, ISP: 0,
			Exchange: uint16(rng.Intn(345)),
			StartSec: start, DurationSec: dur, Bitrate: trace.BitrateSD,
		})
	}
	b.ResetTimer()
	var offload float64
	for i := 0; i < b.N; i++ {
		res, err := chunksim.Run(sessions, chunksim.DefaultConfig(1.5e6))
		if err != nil {
			b.Fatal(err)
		}
		offload = res.Offload()
	}
	b.ReportMetric(offload, "chunk_offload")
}

func BenchmarkCarbonDistribution(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 7
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(tr, sim.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var positive float64
	for i := 0; i < b.N; i++ {
		positive = carbon.Distribute(res.Users, energy.Baliga()).CarbonPositive
	}
	b.ReportMetric(positive, "carbon_positive")
}

// parseBenchCount parses "1,234" into 1234.
func parseBenchCount(b *testing.B, s string) int {
	b.Helper()
	n := 0
	for _, r := range s {
		if r == ',' {
			continue
		}
		if r < '0' || r > '9' {
			b.Fatalf("not a count: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// parseBenchPercent parses "12.3%" or "-4.2%" into 12.3 / -4.2.
func parseBenchPercent(b *testing.B, s string) float64 {
	b.Helper()
	var intPart, frac, div float64
	div = 1
	sign := 1.0
	seenDot := false
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			if seenDot {
				div *= 10
				frac = frac*10 + float64(r-'0')
			} else {
				intPart = intPart*10 + float64(r-'0')
			}
		case r == '.':
			seenDot = true
		case r == '-':
			sign = -1
		case r == '%':
			return sign * (intPart + frac/div)
		}
	}
	return sign * (intPart + frac/div)
}
