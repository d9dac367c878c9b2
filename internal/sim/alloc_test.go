package sim

import (
	"testing"

	"consumelocal/internal/trace"
)

// TestRunAllocsCeiling mirrors swarm.TestTrackerAdvanceAllocs for the
// reference simulator: after one warm-up run has populated the grouper and
// matching pools, a full sim.Run over ~47k sessions must stay under a
// small fixed allocation ceiling. Before the reusable Sweeper /
// MatchInto / Grouper work the same run cost ~200k allocations (one
// keysSorted plus one Allocation per activity interval); a warm run now
// costs ~220 (the escaping Result, its day grid and per-swarm stats), so
// the ceiling below is an order of magnitude of headroom while still
// failing loudly if any per-interval allocation creeps back in.
func TestRunAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts far past the ceiling")
	}
	gcfg := trace.DefaultGeneratorConfig(0.002)
	gcfg.Days = 3
	tr, err := trace.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1.0)
	cfg.TrackUsers = false

	run := func() {
		if _, err := Run(tr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: populate grouper/matching pools

	const ceiling = 2500
	allocs := testing.AllocsPerRun(5, run)
	if allocs > ceiling {
		t.Fatalf("batch run allocated %.0f times over %d sessions, want <= %d",
			allocs, len(tr.Sessions), ceiling)
	}
}
