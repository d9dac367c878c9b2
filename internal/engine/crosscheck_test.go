package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// testTrace generates the shared cross-check workload: small enough to
// keep the suite fast, large enough to exercise thousands of swarms,
// concurrent intervals and every ISP.
func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eveningWindow is the reporting window of the live-evening workload.
const eveningWindow = 300

// eveningTrace generates a scale-0.002 live evening (about 3.1k
// sessions, swarms of about 100 peers) with its horizon cut to the
// broadcast span, as the benchmark's follow workload builds it: the
// schedule starts one window before the first broadcast and ends with
// the last.
func eveningTrace(t testing.TB) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultLiveConfig(0.002)
	shift := cfg.Events[0].StartSec - eveningWindow
	end := int64(0)
	for i := range cfg.Events {
		cfg.Events[i].StartSec -= shift
		end = max(end, cfg.Events[i].StartSec+int64(cfg.Events[i].DurationSec))
	}
	cfg.HorizonSec = (end + eveningWindow - 1) / eveningWindow * eveningWindow
	tr, err := trace.GenerateLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// crosscheckConfigs enumerates the simulation configurations the
// streamed replay must reproduce exactly.
func crosscheckConfigs() map[string]sim.Config {
	base := sim.DefaultConfig(1.0)

	quantized := base
	quantized.QuantizeTickSec = 10

	seeded := base
	seeded.SeedRetentionSec = 600

	partial := base
	partial.ParticipationRate = 0.3

	tiered := base
	tiered.UploadRatio = 0
	tiered.UploadTiers = sim.UKBroadbandTiers()

	random := base
	random.Policy = matching.Random{}

	// The two swarm restrictions are lifted one at a time: lifting both
	// at once builds a few catalogue-wide swarms and costs seconds.
	cityWide := base
	cityWide.Swarm.RestrictISP = false

	mixed := base
	mixed.Swarm.SplitBitrate = false

	unbudgeted := base
	unbudgeted.DisablePaperBudget = true

	absolute := base
	absolute.UploadBps = 1e6

	coarse := base
	tree, err := topology.New("coarse", 345, 3)
	if err != nil {
		panic(err)
	}
	coarse.Topology = tree

	return map[string]sim.Config{
		"default":       base,
		"quantized":     quantized,
		"seeding":       seeded,
		"participation": partial,
		"tiers":         tiered,
		"random":        random,
		"city-wide":     cityWide,
		"mixed-bitrate": mixed,
		"no-budget":     unbudgeted,
		"absolute-bps":  absolute,
		"topology":      coarse,
	}
}

// relDiff returns |a-b| / max(|a|,|b|, 1).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

func assertTallyExact(t *testing.T, label string, got, want sim.Tally) {
	t.Helper()
	if got != want {
		t.Fatalf("%s tally differs:\n got %+v\nwant %+v", label, got, want)
	}
}

func assertTallyClose(t *testing.T, label string, got, want sim.Tally, tol float64) {
	t.Helper()
	if d := relDiff(got.TotalBits, want.TotalBits); d > tol {
		t.Fatalf("%s TotalBits differ by %g: %g vs %g", label, d, got.TotalBits, want.TotalBits)
	}
	if d := relDiff(got.ServerBits, want.ServerBits); d > tol {
		t.Fatalf("%s ServerBits differ by %g: %g vs %g", label, d, got.ServerBits, want.ServerBits)
	}
	for l := range got.LayerBits {
		if d := relDiff(got.LayerBits[l], want.LayerBits[l]); d > tol {
			t.Fatalf("%s LayerBits[%d] differ by %g", label, l, d)
		}
	}
}

// assertResultsMatch compares a streamed result against the batch
// reference: per-swarm statistics and the grand total bit-for-bit,
// cross-swarm aggregates (days, users) within tol.
func assertResultsMatch(t *testing.T, got, want *sim.Result, tol float64) {
	t.Helper()
	if got.PolicyName != want.PolicyName {
		t.Fatalf("policy names differ: %q vs %q", got.PolicyName, want.PolicyName)
	}
	if len(got.Swarms) != len(want.Swarms) {
		t.Fatalf("swarm counts differ: %d vs %d", len(got.Swarms), len(want.Swarms))
	}
	for i := range got.Swarms {
		g, w := got.Swarms[i], want.Swarms[i]
		if g.Key != w.Key {
			t.Fatalf("swarm %d keys differ: %+v vs %+v", i, g.Key, w.Key)
		}
		if g.Sessions != w.Sessions {
			t.Fatalf("swarm %+v session counts differ: %d vs %d", g.Key, g.Sessions, w.Sessions)
		}
		if g.Capacity != w.Capacity {
			t.Fatalf("swarm %+v capacities differ: %g vs %g", g.Key, g.Capacity, w.Capacity)
		}
		assertTallyExact(t, fmt.Sprintf("swarm %+v", g.Key), g.Tally, w.Tally)
	}
	assertTallyExact(t, "total", got.Total, want.Total)

	if len(got.Days) != len(want.Days) {
		t.Fatalf("day counts differ: %d vs %d", len(got.Days), len(want.Days))
	}
	for d := range got.Days {
		for isp := range got.Days[d] {
			assertTallyClose(t, fmt.Sprintf("day %d isp %d", d, isp), got.Days[d][isp], want.Days[d][isp], tol)
		}
	}

	if (got.Users == nil) != (want.Users == nil) {
		t.Fatalf("user tracking differs: %v vs %v", got.Users != nil, want.Users != nil)
	}
	if want.Users != nil {
		if len(got.Users) != len(want.Users) {
			t.Fatalf("user counts differ: %d vs %d", len(got.Users), len(want.Users))
		}
		for id, wu := range want.Users {
			gu := got.Users[id]
			if gu == nil {
				t.Fatalf("user %d missing from streamed result", id)
			}
			if relDiff(gu.DownloadedBits, wu.DownloadedBits) > tol ||
				relDiff(gu.FromPeersBits, wu.FromPeersBits) > tol ||
				relDiff(gu.UploadedBits, wu.UploadedBits) > tol {
				t.Fatalf("user %d ledgers differ: %+v vs %+v", id, gu, wu)
			}
		}
	}
}

// TestStreamMatchesBatch is the engine's core acceptance test: streamed
// cumulative tallies must match sim.Run bit-for-bit per swarm and within
// 1e-12 relative on cross-swarm aggregates, across every configuration
// dimension the batch simulator supports.
func TestStreamMatchesBatch(t *testing.T) {
	tr := testTrace(t)
	for name, simCfg := range crosscheckConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := sim.Run(tr, simCfg)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Stream(context.Background(), TraceSource(tr), Config{Sim: simCfg, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, err := run.Result()
			if err != nil {
				t.Fatal(err)
			}
			assertResultsMatch(t, got, want, 1e-12)
		})
	}
}

// TestStreamMatchesBatchLiveEvening holds the engine to sim.Run on
// live-evening swarms, where intervals have about 100 peers rather than
// the catch-up trace's 3: bit for bit per swarm under the configurations
// that change who is matched or where (seeding appendices pending among
// the active members, quantized boundaries, ISP-offset PoPs, a coarse
// tree, the Random policy), with one worker and with four.
func TestStreamMatchesBatchLiveEvening(t *testing.T) {
	tr := eveningTrace(t)
	configs := crosscheckConfigs()
	for _, name := range []string{"default", "seeding", "quantized", "city-wide", "topology", "random"} {
		simCfg := configs[name]
		t.Run(name, func(t *testing.T) {
			want, err := sim.Run(tr, simCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				run, err := Stream(context.Background(), TraceSource(tr), Config{Sim: simCfg, WindowSec: eveningWindow, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.Result()
				if err != nil {
					t.Fatal(err)
				}
				assertResultsMatch(t, got, want, 1e-12)
			}
		})
	}
}

// TestStreamDeterministicAcrossWorkers checks that the sharded pipeline
// is invariant to the worker count: per-swarm statistics and the total
// are bit-for-bit identical, aggregates within float associativity.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	tr := testTrace(t)
	cfg := sim.DefaultConfig(1.0)

	var reference *sim.Result
	for _, workers := range []int{1, 2, 5, 8} {
		run, err := Stream(context.Background(), TraceSource(tr), Config{Sim: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Result()
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = res
			continue
		}
		assertResultsMatch(t, res, reference, 1e-12)
	}
}

// TestStreamFromScanner replays the CSV interchange format through
// trace.Scanner and checks the out-of-core path agrees exactly with the
// in-memory source.
func TestStreamFromScanner(t *testing.T) {
	tr := testTrace(t)
	want, err := sim.Run(tr, sim.DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := newPipeTrace(t, tr)
	defer pr.Close()
	_ = pw

	sc, err := trace.NewScanner(pr)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Stream(context.Background(), sc, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, got, want, 1e-12)
}
