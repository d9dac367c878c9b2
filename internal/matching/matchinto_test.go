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

// orderedPolicy runs LocalityFirst.MatchIntoOrdered behind Policy's
// MatchInto for the tests and benchmarks, handing it an (exchange,
// index) order computed once up front, as the engine keeps it. MatchInto
// must be given the peers the order was built from.
type orderedPolicy struct {
	LocalityFirst
	byExchange []int32
}

func (p orderedPolicy) Name() string { return "locality-first-ordered" }

func (p orderedPolicy) MatchInto(a *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
	return p.MatchIntoOrdered(a, peers, p.byExchange, demands, caps, budget)
}

// TestMatchIntoAllocs pins the recycled matching path at zero
// allocations at steady state, for both policies and LocalityFirst's
// ordered entry: once the Allocation's per-peer vectors and the pooled
// scratch have grown, an interval match must not touch the heap.
func TestMatchIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch on purpose, so pooled reuse cannot be pinned")
	}
	peers, demands, caps := matchWorkload(128, 1)
	for _, policy := range []Policy{LocalityFirst{}, Random{}, orderedPolicy{byExchange: refExchangeOrder(peers)}} {
		t.Run(policy.Name(), func(t *testing.T) {
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

// TestMatchIntoOrderedRejectsBadOrder: an order that is not every peer
// index once in (exchange, index) order is refused, not matched on.
func TestMatchIntoOrderedRejectsBadOrder(t *testing.T) {
	peers, demands, caps := uniformInputs([]int{3, 1, 3, 2}, 9, 100, 100)
	for _, order := range [][]int32{
		{1, 3, 0},       // one short
		{1, 3, 0, 2, 2}, // one long
		{1, 3, 0, 0},    // an index twice
		{1, 3, 0, 4},    // an index out of range
		{1, 3, 2, 0},    // exchange 3's members out of index order
		{3, 1, 0, 2},    // exchanges out of order
		{1, 3, 0, -1},   // a negative index
	} {
		var a Allocation
		if err := (LocalityFirst{}).MatchIntoOrdered(&a, peers, order, demands, caps, -1); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	var a Allocation
	if err := (LocalityFirst{}).MatchIntoOrdered(&a, peers, []int32{1, 3, 0, 2}, demands, caps, -1); err != nil {
		t.Fatalf("valid order refused: %v", err)
	}
}

// BenchmarkMatchInto measures one interval's matching through the
// recycled-Allocation path, the hottest call in every engine, on three
// interval shapes: 128 peers over a 12-exchange tree, and the two
// shapes the gated workloads produce on the London tree — catch-up
// replay (3 peers per interval on average) and a live evening
// (about 100). locality-first-ordered is the engine's path, handed the
// (exchange, index) order instead of sorting.
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
	for _, policy := range []Policy{LocalityFirst{}, Random{}, orderedPolicy{}} {
		for _, shape := range shapes {
			b.Run(policy.Name()+"/"+shape.name, func(b *testing.B) {
				peers, demands, caps := shape.workload(shape.n, 1)
				policy := policy
				if p, ok := policy.(orderedPolicy); ok {
					p.byExchange = refExchangeOrder(peers)
					policy = p
				}
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
