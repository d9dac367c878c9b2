package swarm

import (
	"testing"

	"consumelocal/internal/trace"
)

// sweepWorkloadSwarm wraps the shared synthetic session workload in a
// Swarm, the reference simulator's sweep input.
func sweepWorkloadSwarm(n int) *Swarm {
	return &Swarm{Key: Key{Content: 1}, Sessions: trackerWorkload(n)}
}

// TestSweeperMatchesSweep pins a reused Sweeper to a fresh one on a
// heavily overlapping workload: identical interval boundaries and
// identical ascending active sets, round after round, so scratch reuse
// never leaks state from one sweep into the next.
func TestSweeperMatchesSweep(t *testing.T) {
	sw := sweepWorkloadSwarm(256)
	want := new(Sweeper).Sweep(sw)

	var sp Sweeper
	for round := 0; round < 3; round++ {
		got := sp.Sweep(sw)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d intervals, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].From != want[i].From || got[i].To != want[i].To {
				t.Fatalf("round %d: interval %d = [%d,%d), want [%d,%d)",
					round, i, got[i].From, got[i].To, want[i].From, want[i].To)
			}
			if len(got[i].Active) != len(want[i].Active) {
				t.Fatalf("round %d: interval %d has %d active, want %d",
					round, i, len(got[i].Active), len(want[i].Active))
			}
			for j := range want[i].Active {
				if got[i].Active[j] != want[i].Active[j] {
					t.Fatalf("round %d: interval %d active[%d] = %d, want %d",
						round, i, j, got[i].Active[j], want[i].Active[j])
				}
			}
		}
	}
}

// TestSweeperAllocs pins the batch sweep fast path at zero allocations
// at steady state: after one warm-up sweep has grown the event slice,
// interval buffer and active-set arena, further sweeps of the same
// workload must not allocate at all.
func TestSweeperAllocs(t *testing.T) {
	sw := sweepWorkloadSwarm(512)
	var sp Sweeper
	sp.Sweep(sw) // warm-up: grow internal buffers

	allocs := testing.AllocsPerRun(10, func() {
		sp.Sweep(sw)
	})
	if allocs != 0 {
		t.Fatalf("sweeper allocated %.1f times per run, want 0", allocs)
	}
}

// TestGrouperMatchesGroup pins the Grouper to the package-level Group
// contract: same key order, same members in trace order, stable across
// arena reuse.
func TestGrouperMatchesGroup(t *testing.T) {
	sessions := trackerWorkload(256)
	for i := range sessions {
		sessions[i].ContentID = uint32(i % 7)
		sessions[i].ISP = uint8(i % 3)
		sessions[i].Bitrate = trace.BitrateSD
	}
	tr := &trace.Trace{Sessions: sessions}
	opts := DefaultOptions()
	want := Group(tr, opts)

	var g Grouper
	for round := 0; round < 3; round++ {
		got := g.Group(tr, opts)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d swarms, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("round %d: swarm %d key = %+v, want %+v", round, i, got[i].Key, want[i].Key)
			}
			if len(got[i].Sessions) != len(want[i].Sessions) {
				t.Fatalf("round %d: swarm %d has %d sessions, want %d",
					round, i, len(got[i].Sessions), len(want[i].Sessions))
			}
			for j := range want[i].Sessions {
				if got[i].Sessions[j] != want[i].Sessions[j] {
					t.Fatalf("round %d: swarm %d session %d differs", round, i, j)
				}
			}
		}
	}
}

// TestGrouperAllocs pins grouping at near-zero steady-state allocation:
// after a warm-up call has grown the key map and arenas, regrouping the
// same trace must not allocate.
func TestGrouperAllocs(t *testing.T) {
	sessions := trackerWorkload(512)
	for i := range sessions {
		sessions[i].ContentID = uint32(i % 17)
	}
	tr := &trace.Trace{Sessions: sessions}
	opts := DefaultOptions()
	var g Grouper
	g.Group(tr, opts) // warm-up

	allocs := testing.AllocsPerRun(10, func() {
		g.Group(tr, opts)
	})
	if allocs != 0 {
		t.Fatalf("grouper allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSweeper measures the reusable batch sweep over heavily
// overlapping membership, the per-swarm hot loop of sim.Run.
func BenchmarkSweeper(b *testing.B) {
	sw := sweepWorkloadSwarm(2048)
	var sp Sweeper
	sp.Sweep(sw)
	b.ReportAllocs()
	b.ResetTimer()
	var intervals int
	for i := 0; i < b.N; i++ {
		intervals = len(sp.Sweep(sw))
	}
	_ = intervals
	b.ReportMetric(float64(len(sw.Sessions)), "sessions/op")
}
