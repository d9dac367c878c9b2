package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"consumelocal/internal/energy"
)

const eps = 1e-6

// uniformInputs builds n peers with uniform demand and capacity, placed by
// the given exchange assignments (PoP = exchange % pops).
func uniformInputs(exchanges []int, pops int, demand, capacity float64) ([]Peer, []float64, []float64) {
	peers := make([]Peer, len(exchanges))
	demands := make([]float64, len(exchanges))
	caps := make([]float64, len(exchanges))
	for i, e := range exchanges {
		peers[i] = Peer{User: uint32(i), Exchange: e, PoP: e % pops}
		demands[i] = demand
		caps[i] = capacity
	}
	return peers, demands, caps
}

// checkConservation verifies the Policy contract on an allocation.
func checkConservation(t *testing.T, a Allocation, demands []float64) {
	t.Helper()
	var totalDemand, received, uploaded float64
	for i := range demands {
		totalDemand += demands[i]
		received += a.PeerReceivedBits[i]
		uploaded += a.UploadedBits[i]
	}
	if math.Abs(received+a.ServerBits-totalDemand) > eps*(1+totalDemand) {
		t.Errorf("traffic not conserved: received %v + server %v != demand %v",
			received, a.ServerBits, totalDemand)
	}
	if math.Abs(uploaded-a.PeerBits()) > eps*(1+uploaded) {
		t.Errorf("uploads %v != layer bits %v", uploaded, a.PeerBits())
	}
	if math.Abs(received-a.PeerBits()) > eps*(1+received) {
		t.Errorf("peer downloads %v != layer bits %v", received, a.PeerBits())
	}
	if a.ServerBits < -eps {
		t.Errorf("negative server bits: %v", a.ServerBits)
	}
	for l, b := range a.LayerBits {
		if b < -eps {
			t.Errorf("negative layer %d bits: %v", l, b)
		}
	}
}

func policies() []Policy {
	return []Policy{LocalityFirst{}, Random{}}
}

func TestPolicyNames(t *testing.T) {
	if (LocalityFirst{}).Name() != "locality-first" {
		t.Error("unexpected LocalityFirst name")
	}
	if (Random{}).Name() != "random" {
		t.Error("unexpected Random name")
	}
}

func TestMatchRejectsMismatchedInputs(t *testing.T) {
	for _, p := range policies() {
		if _, err := p.Match(make([]Peer, 2), make([]float64, 1), make([]float64, 2), -1); err == nil {
			t.Errorf("%s: expected length mismatch error", p.Name())
		}
		if _, err := p.Match(make([]Peer, 1), []float64{-1}, []float64{1}, -1); err == nil {
			t.Errorf("%s: expected negative demand error", p.Name())
		}
	}
}

func TestMatchSinglePeerGoesToServer(t *testing.T) {
	for _, p := range policies() {
		peers, demands, caps := uniformInputs([]int{0}, 9, 100, 100)
		a, err := p.Match(peers, demands, caps, -1)
		if err != nil {
			t.Fatal(err)
		}
		if a.ServerBits != 100 || a.PeerBits() != 0 {
			t.Errorf("%s: lone peer should be served entirely by the CDN: %+v", p.Name(), a)
		}
	}
}

func TestMatchZeroBudgetDisablesSharing(t *testing.T) {
	for _, p := range policies() {
		peers, demands, caps := uniformInputs([]int{0, 0}, 9, 100, 100)
		a, err := p.Match(peers, demands, caps, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.PeerBits() != 0 || a.ServerBits != 200 {
			t.Errorf("%s: zero budget should disable sharing: %+v", p.Name(), a)
		}
	}
}

func TestLocalitySameExchangeAllLocal(t *testing.T) {
	// Two peers on the same exchange, enough capacity: all shared bits
	// must be priced at the exchange layer.
	peers, demands, caps := uniformInputs([]int{5, 5}, 9, 100, 100)
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LayerBits[energy.LayerExchange.Index()]; math.Abs(got-200) > eps {
		t.Errorf("exchange bits = %v, want 200", got)
	}
	if a.LayerBits[energy.LayerPoP.Index()] != 0 || a.LayerBits[energy.LayerCore.Index()] != 0 {
		t.Errorf("unexpected non-local traffic: %+v", a.LayerBits)
	}
	checkConservation(t, a, demands)
}

func TestLocalitySamePoPCrossExchange(t *testing.T) {
	// Exchanges 0 and 9 share PoP 0 (9 % 9 == 0) but are different
	// exchanges: traffic must be priced at the PoP layer.
	peers, demands, caps := uniformInputs([]int{0, 9}, 9, 100, 100)
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LayerBits[energy.LayerPoP.Index()]; math.Abs(got-200) > eps {
		t.Errorf("pop bits = %v, want 200: %+v", got, a.LayerBits)
	}
	checkConservation(t, a, demands)
}

func TestLocalityCrossPoP(t *testing.T) {
	// Exchanges 0 and 1 are under different PoPs: core traffic.
	peers, demands, caps := uniformInputs([]int{0, 1}, 9, 100, 100)
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LayerBits[energy.LayerCore.Index()]; math.Abs(got-200) > eps {
		t.Errorf("core bits = %v, want 200: %+v", got, a.LayerBits)
	}
	checkConservation(t, a, demands)
}

func TestLocalityPrefersLocalLayers(t *testing.T) {
	// Three peers: two share exchange 0, one sits on exchange 1 (other
	// PoP). Capacity is scarce (half of demand), so local matching should
	// saturate the exchange layer before any cross traffic happens.
	peers, demands, caps := uniformInputs([]int{0, 0, 1}, 9, 100, 50)
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	exBits := a.LayerBits[energy.LayerExchange.Index()]
	// The two co-located peers have 100 joint capacity against 200 joint
	// demand: all 100 flows locally.
	if math.Abs(exBits-100) > eps {
		t.Errorf("exchange bits = %v, want 100: %+v", exBits, a.LayerBits)
	}
	checkConservation(t, a, demands)
}

func TestLocalityBudgetTrimsCoreFirst(t *testing.T) {
	// Force both exchange-local and core traffic, then squeeze the budget
	// so only the local traffic survives.
	peers, demands, caps := uniformInputs([]int{0, 0, 1, 2}, 9, 100, 100)
	unbounded, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.PeerBits() < 300 {
		t.Fatalf("setup: expected heavy sharing, got %v", unbounded.PeerBits())
	}
	exBits := unbounded.LayerBits[energy.LayerExchange.Index()]

	budget := exBits // keep exactly the local traffic
	a, err := LocalityFirst{}.Match(peers, demands, caps, budget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.PeerBits()-budget) > eps {
		t.Errorf("budget not enforced: peer bits %v, budget %v", a.PeerBits(), budget)
	}
	if got := a.LayerBits[energy.LayerExchange.Index()]; math.Abs(got-exBits) > eps {
		t.Errorf("local traffic trimmed before core: exchange %v, want %v", got, exBits)
	}
	if a.LayerBits[energy.LayerCore.Index()] > eps {
		t.Errorf("core traffic should be trimmed first, got %v", a.LayerBits[energy.LayerCore.Index()])
	}
	checkConservation(t, a, demands)
}

func TestLocalityCapacityConstrained(t *testing.T) {
	// q/β = 0.5: peers can serve at most half the demand.
	peers, demands, caps := uniformInputs([]int{3, 3, 3, 3}, 9, 100, 50)
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.PeerBits()-200) > eps {
		t.Errorf("peer bits = %v, want 200 (capacity bound)", a.PeerBits())
	}
	if math.Abs(a.ServerBits-200) > eps {
		t.Errorf("server bits = %v, want 200", a.ServerBits)
	}
	checkConservation(t, a, demands)
}

func TestLocalityPaperBudgetMatchesEq2(t *testing.T) {
	// With uniform q and the paper budget (L-1)·q, the peer traffic in a
	// capacity-constrained window must be exactly (L-1)·q.
	const l, q, beta = 5, 80.0, 100.0
	peers, demands, caps := uniformInputs([]int{1, 1, 1, 1, 1}, 9, beta, q)
	budget := float64(l-1) * q
	a, err := LocalityFirst{}.Match(peers, demands, caps, budget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.PeerBits()-budget) > eps {
		t.Errorf("peer bits = %v, want (L-1)q = %v", a.PeerBits(), budget)
	}
	checkConservation(t, a, demands)
}

func TestLocalityNoSelfServeTwoGroups(t *testing.T) {
	// Demand concentrated in one exchange, capacity in another (same PoP):
	// everything must flow at the PoP layer, bounded by the capacity side.
	peers := []Peer{
		{User: 0, Exchange: 0, PoP: 0},
		{User: 1, Exchange: 9, PoP: 0},
	}
	demands := []float64{100, 0}
	caps := []float64{0, 60}
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LayerBits[energy.LayerPoP.Index()]; math.Abs(got-60) > eps {
		t.Errorf("pop bits = %v, want 60", got)
	}
	if math.Abs(a.UploadedBits[1]-60) > eps || a.UploadedBits[0] > eps {
		t.Errorf("upload attribution wrong: %v", a.UploadedBits)
	}
	if math.Abs(a.PeerReceivedBits[0]-60) > eps {
		t.Errorf("download attribution wrong: %v", a.PeerReceivedBits)
	}
	checkConservation(t, a, demands)
}

func TestCrossMatchSelfExclusion(t *testing.T) {
	// One dominant group cannot serve itself: D=[10,10] U=[15,5] can move
	// at most 15 units across groups.
	peers := []Peer{
		{User: 0, Exchange: 0, PoP: 0}, {User: 1, Exchange: 0, PoP: 0},
		{User: 2, Exchange: 9, PoP: 0}, {User: 3, Exchange: 9, PoP: 0},
	}
	demands := []float64{10, 0, 10, 0}
	caps := []float64{0, 15, 0, 5}
	// Within-exchange pass handles part of it: group {0,1} has demand 10
	// and capacity 15 locally => 10 flows at exchange layer; group {2,3}
	// moves 5 locally. Remaining demand 5 (group 2) matches remaining
	// capacity 5 (group 1) at the PoP layer.
	a, err := LocalityFirst{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LayerBits[energy.LayerExchange.Index()]; math.Abs(got-15) > eps {
		t.Errorf("exchange bits = %v, want 15", got)
	}
	if got := a.LayerBits[energy.LayerPoP.Index()]; math.Abs(got-5) > eps {
		t.Errorf("pop bits = %v, want 5", got)
	}
	checkConservation(t, a, demands)
}

func TestRandomLayerSplitMatchesPairProbabilities(t *testing.T) {
	// 4 peers: two on exchange 0, one on exchange 9 (same PoP as 0), one
	// on exchange 1 (different PoP).
	peers, demands, caps := uniformInputs([]int{0, 0, 9, 1}, 9, 100, 100)
	a, err := Random{}.Match(peers, demands, caps, -1)
	if err != nil {
		t.Fatal(err)
	}
	flow := a.PeerBits()
	if math.Abs(flow-400) > eps {
		t.Fatalf("flow = %v, want 400", flow)
	}
	// Ordered pairs: 4×3 = 12. Same exchange: 2×1 = 2 => 1/6.
	// Same PoP: peers {0,1,2} => 3×2 = 6 => 1/2 (includes same exchange).
	wantExchange := flow / 6
	wantPoP := flow * (0.5 - 1.0/6)
	wantCore := flow * 0.5
	if got := a.LayerBits[energy.LayerExchange.Index()]; math.Abs(got-wantExchange) > eps {
		t.Errorf("exchange bits = %v, want %v", got, wantExchange)
	}
	if got := a.LayerBits[energy.LayerPoP.Index()]; math.Abs(got-wantPoP) > eps {
		t.Errorf("pop bits = %v, want %v", got, wantPoP)
	}
	if got := a.LayerBits[energy.LayerCore.Index()]; math.Abs(got-wantCore) > eps {
		t.Errorf("core bits = %v, want %v", got, wantCore)
	}
	checkConservation(t, a, demands)
}

func TestRandomNeverBeatsLocalityOnLocalBits(t *testing.T) {
	// For identical inputs, locality-first must put at least as many bits
	// on the exchange layer as random matching (in expectation terms the
	// random policy uses the pair distribution, so this holds
	// deterministically here).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		exchanges := make([]int, n)
		for i := range exchanges {
			exchanges[i] = rng.Intn(6)
		}
		peers, demands, caps := uniformInputs(exchanges, 3, 100, float64(20+rng.Intn(100)))
		local, err := LocalityFirst{}.Match(peers, demands, caps, -1)
		if err != nil {
			t.Fatal(err)
		}
		random, err := Random{}.Match(peers, demands, caps, -1)
		if err != nil {
			t.Fatal(err)
		}
		li := energy.LayerExchange.Index()
		if local.LayerBits[li] < random.LayerBits[li]-eps {
			t.Errorf("trial %d: locality exchange bits %v < random %v",
				trial, local.LayerBits[li], random.LayerBits[li])
		}
	}
}

// Property test: both policies conserve traffic and respect the budget for
// arbitrary inputs.
func TestPoliciesConservationProperty(t *testing.T) {
	for _, p := range policies() {
		p := p
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(30)
			exchanges := make([]int, n)
			for i := range exchanges {
				exchanges[i] = rng.Intn(10)
			}
			peers, demands, caps := uniformInputs(exchanges, 4, 0, 0)
			for i := range demands {
				demands[i] = rng.Float64() * 200
				caps[i] = rng.Float64() * 200
			}
			budget := -1.0
			if rng.Intn(2) == 0 {
				budget = rng.Float64() * 300
			}
			a, err := p.Match(peers, demands, caps, budget)
			if err != nil {
				return false
			}
			var totalDemand, received, uploaded float64
			for i := range demands {
				totalDemand += demands[i]
				received += a.PeerReceivedBits[i]
				uploaded += a.UploadedBits[i]
			}
			tol := eps * (1 + totalDemand)
			if math.Abs(received+a.ServerBits-totalDemand) > tol {
				return false
			}
			if math.Abs(uploaded-a.PeerBits()) > tol {
				return false
			}
			if budget >= 0 && a.PeerBits() > budget+tol {
				return false
			}
			// A peer can never upload more than its capacity or receive
			// more than its demand.
			for i := range demands {
				if a.UploadedBits[i] > caps[i]+tol || a.PeerReceivedBits[i] > demands[i]+tol {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestPairLocalisation(t *testing.T) {
	peers := []Peer{
		{Exchange: 0, PoP: 0},
		{Exchange: 0, PoP: 0},
		{Exchange: 1, PoP: 1},
	}
	ex, pop := pairLocalisation(peers)
	if math.Abs(ex-2.0/6) > eps {
		t.Errorf("same-exchange probability = %v, want 1/3", ex)
	}
	if math.Abs(pop-2.0/6) > eps {
		t.Errorf("same-pop probability = %v, want 1/3", pop)
	}
	if ex, pop := pairLocalisation(nil); ex != 0 || pop != 0 {
		t.Error("empty input should yield zero probabilities")
	}
}

// TestMatchRejectsNonFinite: a NaN or infinite demand or capacity is
// refused by both policies, like a negative one. A NaN demand used to
// keep the greedy from stopping, and an infinite capacity returned
// uploads that do not sum to the peer traffic.
func TestMatchRejectsNonFinite(t *testing.T) {
	for _, p := range policies() {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			peers, demands, caps := uniformInputs([]int{0, 0, 1}, 9, 100, 100)
			demands[1] = bad
			if _, err := p.Match(peers, demands, caps, -1); err == nil {
				t.Errorf("%s: demand %v accepted", p.Name(), bad)
			}
			demands[1] = 100
			caps[2] = bad
			if _, err := p.Match(peers, demands, caps, -1); err == nil {
				t.Errorf("%s: capacity %v accepted", p.Name(), bad)
			}
		}
	}
}
