package matching

import (
	"sync"

	"consumelocal/internal/energy"
)

// Random is the locality-oblivious ablation baseline: the same volume of
// traffic is offloaded to peers as a locality-aware matcher would achieve
// globally, but uploader–downloader pairs are formed uniformly at random,
// so peer bits are priced at the layer distribution of random pairs. The
// zero value is ready to use.
//
// Comparing Random against LocalityFirst isolates the contribution of
// *consuming local* (shorter P2P paths) from the contribution of
// offloading per se (fewer server bits).
type Random struct{}

var _ Policy = Random{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// rndScratch is the reusable per-MatchInto working state: one sortable
// key slice for the pair-localisation counting passes and its packed
// sort keys.
type rndScratch struct {
	pairs []groupPair
	keys  []uint64
}

var rndPool = sync.Pool{New: func() any { return new(rndScratch) }}

// Match implements Policy, allocating a fresh result per call; the
// engines recycle one Allocation through MatchInto instead.
func (p Random) Match(peers []Peer, demands, caps []float64, budget float64) (Allocation, error) {
	var a Allocation
	if err := p.MatchInto(&a, peers, demands, caps, budget); err != nil {
		return Allocation{}, err
	}
	return a, nil
}

// MatchInto implements Policy. The total peer flow is min(total demand,
// total capacity) — achievable for n >= 2 via cyclic assignments — and is
// distributed over layers according to the exact probability that a
// uniformly random ordered pair of distinct peers shares an exchange
// point or a PoP.
//
//consumelocal:hotpath
func (Random) MatchInto(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
	totalDemand, err := validate(peers, demands, caps)
	if err != nil {
		return err
	}
	n := len(peers)
	alloc.reset(n, totalDemand)
	if n < 2 || budget == 0 {
		return nil
	}

	var totalCap float64
	for _, c := range caps {
		totalCap += c
	}
	flow := totalDemand
	if totalCap < flow {
		flow = totalCap
	}
	if flow <= 0 {
		return nil
	}

	pExchange, pPoP := pairLocalisation(peers)
	alloc.LayerBits[energy.LayerExchange.Index()] = flow * pExchange
	alloc.LayerBits[energy.LayerPoP.Index()] = flow * (pPoP - pExchange)
	alloc.LayerBits[energy.LayerCore.Index()] = flow * (1 - pPoP)
	alloc.ServerBits = totalDemand - flow

	// Uploads consume capacity proportionally; downloads are met
	// proportionally to demand.
	for i := range peers {
		if totalCap > 0 {
			alloc.UploadedBits[i] = caps[i] / totalCap * flow
		}
		if totalDemand > 0 {
			alloc.PeerReceivedBits[i] = demands[i] / totalDemand * flow
		}
	}

	applyBudget(alloc, budget)
	return nil
}

// pairLocalisation returns the probability that a uniformly random ordered
// pair of distinct peers shares an exchange point, and the probability it
// shares a PoP (which includes the same-exchange case). Co-location is
// counted by sorting a pooled key slice and summing k·(k−1) over equal
// runs — the counts are exact integers, so the result is identical to the
// former map-based counting regardless of summation order, without the
// two per-interval map allocations.
func pairLocalisation(peers []Peer) (sameExchange, samePoP float64) {
	n := len(peers)
	if n < 2 {
		return 0, 0
	}
	sc := rndPool.Get().(*rndScratch)
	defer rndPool.Put(sc)
	pairs := grown(&sc.pairs, n)

	pairsTotal := float64(n) * float64(n-1)
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.Exchange), idx: int32(i)}
	}
	exPairs := coLocatedPairs(pairs, &sc.keys)
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.PoP), idx: int32(i)}
	}
	popPairs := coLocatedPairs(pairs, &sc.keys)
	return exPairs / pairsTotal, popPairs / pairsTotal
}

// coLocatedPairs sorts the keys and returns Σ k·(k−1) over equal-key
// runs: the number of ordered pairs of distinct peers sharing a key.
func coLocatedPairs(pairs []groupPair, keys *[]uint64) float64 {
	sortPairs(pairs, keys)
	var total float64
	for s := 0; s < len(pairs); {
		e := s + 1
		for e < len(pairs) && pairs[e].k1 == pairs[s].k1 {
			e++
		}
		k := float64(e - s)
		total += k * (k - 1)
		s = e
	}
	return total
}
