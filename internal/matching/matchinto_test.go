package matching

import (
	"math/rand"
	"testing"

	"consumelocal/internal/topology"
)

// matchWorkload builds one interval's matching inputs: n peers spread
// over a small exchange/PoP topology with varied demand and capacity,
// the shape both engines feed per activity interval.
func matchWorkload(n int, seed int64) (peers []Peer, demands, caps []float64) {
	rng := rand.New(rand.NewSource(seed))
	peers = make([]Peer, n)
	demands = make([]float64, n)
	caps = make([]float64, n)
	for i := range peers {
		exchange := rng.Intn(12)
		peers[i] = Peer{User: uint32(i), Exchange: exchange, PoP: exchange / 4}
		demands[i] = float64(1+rng.Intn(1000)) * 1e6
		caps[i] = float64(rng.Intn(800)) * 1e6
	}
	return peers, demands, caps
}

// londonWorkload is matchWorkload with the peers placed uniformly over
// the London tree (345 exchanges under 9 PoPs), the topology every
// gated workload replays on.
func londonWorkload(n int, seed int64) (peers []Peer, demands, caps []float64) {
	tree := topology.DefaultLondon()
	peers, demands, caps = matchWorkload(n, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range peers {
		exchange := rng.Intn(tree.Exchanges())
		peers[i].Exchange, peers[i].PoP = exchange, tree.PoPOf(exchange)
	}
	return peers, demands, caps
}

// allocationsEqual compares two allocations bit for bit.
func allocationsEqual(t *testing.T, label string, got *Allocation, want Allocation) {
	t.Helper()
	if got.ServerBits != want.ServerBits {
		t.Fatalf("%s: ServerBits = %v, want %v", label, got.ServerBits, want.ServerBits)
	}
	if got.LayerBits != want.LayerBits {
		t.Fatalf("%s: LayerBits = %v, want %v", label, got.LayerBits, want.LayerBits)
	}
	if len(got.UploadedBits) != len(want.UploadedBits) {
		t.Fatalf("%s: %d uploaded entries, want %d", label, len(got.UploadedBits), len(want.UploadedBits))
	}
	for i := range want.UploadedBits {
		if got.UploadedBits[i] != want.UploadedBits[i] {
			t.Fatalf("%s: UploadedBits[%d] = %v, want %v", label, i, got.UploadedBits[i], want.UploadedBits[i])
		}
		if got.PeerReceivedBits[i] != want.PeerReceivedBits[i] {
			t.Fatalf("%s: PeerReceivedBits[%d] = %v, want %v", label, i, got.PeerReceivedBits[i], want.PeerReceivedBits[i])
		}
	}
}

// TestMatchIntoReusesAllocation pins the MatchInto contract for both
// policies: recycling one Allocation across intervals of varying size —
// growing, shrinking, budget-capped — produces bit-for-bit the result a
// fresh Match call does every time.
func TestMatchIntoReusesAllocation(t *testing.T) {
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			var reused Allocation
			sizes := []int{64, 7, 128, 2, 1, 31}
			for round, n := range sizes {
				peers, demands, caps := matchWorkload(n, int64(round+1))
				budget := -1.0
				if round%2 == 1 {
					var sumCaps float64
					for _, c := range caps {
						sumCaps += c
					}
					budget = sumCaps / 4 // force the trim path
				}
				want, err := policy.Match(peers, demands, caps, budget)
				if err != nil {
					t.Fatal(err)
				}
				if err := policy.MatchInto(&reused, peers, demands, caps, budget); err != nil {
					t.Fatal(err)
				}
				allocationsEqual(t, policy.Name(), &reused, want)
			}
		})
	}
}

// TestMatchIntoAllocs pins the recycled matching path at zero
// allocations at steady state, for both policies: once the Allocation's
// per-peer vectors and the pooled scratch have grown, an interval match
// must not touch the heap.
func TestMatchIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch on purpose, so pooled reuse cannot be pinned")
	}
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			peers, demands, caps := matchWorkload(128, 1)
			var a Allocation
			if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("MatchInto allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkMatchInto measures one interval's matching through the
// recycled-Allocation path, the hottest call in every engine, on three
// interval shapes: 128 peers over a 12-exchange tree, and the two
// shapes the gated workloads produce on the London tree — catch-up
// replay (3 peers per interval on average) and a live evening
// (about 100).
func BenchmarkMatchInto(b *testing.B) {
	shapes := []struct {
		name     string
		workload func(n int, seed int64) ([]Peer, []float64, []float64)
		n        int
	}{
		{"mixed", matchWorkload, 128},
		{"catch-up", londonWorkload, 3},
		{"live", londonWorkload, 100},
	}
	for _, policy := range []Policy{LocalityFirst{}, Random{}} {
		for _, shape := range shapes {
			b.Run(policy.Name()+"/"+shape.name, func(b *testing.B) {
				peers, demands, caps := shape.workload(shape.n, 1)
				var a Allocation
				if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := policy.MatchInto(&a, peers, demands, caps, -1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(peers)), "peers/op")
			})
		}
	}
}
