package matching

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"consumelocal/internal/energy"
)

// refLocalityMatchInto is the three-sort LocalityFirst.MatchInto the key
// sorts replaced, kept verbatim as the reference the differential test
// holds the production matcher to: every pass groups peers with one
// comparator sort of (k1, k2, idx) pairs.
func refLocalityMatchInto(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
	totalDemand, err := validate(peers, demands, caps)
	if err != nil {
		return err
	}
	n := len(peers)
	alloc.reset(n, totalDemand)
	if n < 2 || budget == 0 {
		return nil
	}

	sc := lfPool.Get().(*lfScratch)
	defer lfPool.Put(sc)

	// Residual demand/capacity per peer, consumed pass by pass; the
	// copies overwrite every element, so no zeroing pass is needed.
	residD := grown(&sc.residD, n)
	residC := grown(&sc.residC, n)
	copy(residD, demands)
	copy(residC, caps)

	if cap(sc.pairs) < n {
		sc.pairs = make([]groupPair, n)
	}
	pairs := sc.pairs[:n]

	// Pass 1: within exchange points.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.Exchange), idx: int32(i)}
	}
	slices.SortFunc(pairs, cmpGroupPair)
	for s := 0; s < n; {
		e := s + 1
		for e < n && pairs[e].k1 == pairs[s].k1 {
			e++
		}
		if e-s >= 2 {
			flow := matchWithin(pairs[s:e], residD, residC)
			record(alloc, energy.LayerExchange, flow, pairs[s:e], residD, residC, demands, caps)
		}
		s = e
	}

	// Pass 2: across exchanges within each PoP. Sorting by (PoP,
	// exchange, index) makes PoPs runs and their exchange subgroups
	// sub-runs of the same ordering.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.PoP), k2: int64(p.Exchange), idx: int32(i)}
	}
	slices.SortFunc(pairs, cmpGroupPair)
	for s := 0; s < n; {
		e := s + 1
		for e < n && pairs[e].k1 == pairs[s].k1 {
			e++
		}
		flows := crossMatch(sc, pairs[s:e], residD, residC)
		record(alloc, energy.LayerPoP, flows, pairs[s:e], residD, residC, demands, caps)
		s = e
	}

	// Pass 3: across PoPs through the core.
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.PoP), k2: int64(p.PoP), idx: int32(i)}
	}
	slices.SortFunc(pairs, cmpGroupPair)
	flows := crossMatch(sc, pairs, residD, residC)
	record(alloc, energy.LayerCore, flows, pairs, residD, residC, demands, caps)

	applyBudget(alloc, budget)
	return nil
}

// diffShapes are the peer placements the differential test draws from:
// consistent exchange→PoP trees, an exchange straddling two PoPs, and
// keys the packed sort cannot hold (negative, or at and one past the
// key width), which must take the comparator fallback.
var diffShapes = []struct {
	name  string
	place func(rng *rand.Rand) (exchange, pop int)
}{
	{"tree", func(rng *rand.Rand) (int, int) {
		e := rng.Intn(12)
		return e, e / 4
	}},
	{"london", func(rng *rand.Rand) (int, int) {
		e := rng.Intn(345)
		return e, e % 9
	}},
	{"split-exchange", func(rng *rand.Rand) (int, int) {
		e := rng.Intn(6)
		pop := e / 3
		if e == 0 && rng.Intn(2) == 0 {
			pop = 1 // exchange 0 sits under PoPs 0 and 1
		}
		return e, pop
	}},
	{"negative", func(rng *rand.Rand) (int, int) {
		e := rng.Intn(9) - 4
		return e, (e+4)/3 - 1
	}},
	{"wide-exchange", func(rng *rand.Rand) (int, int) {
		e := keyGroupMax - 3 + rng.Intn(6)
		return e, e % 3
	}},
	{"wide-pop", func(rng *rand.Rand) (int, int) {
		e := rng.Intn(12)
		return e, keyGroupMax - 1 + e%3
	}},
}

// refExchangeOrder is the reference's pass-1 order as MatchIntoOrdered
// takes it: the peer indices sorted by (exchange, index) with the
// comparator sort.
func refExchangeOrder(peers []Peer) []int32 {
	pairs := make([]groupPair, len(peers))
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.Exchange), idx: int32(i)}
	}
	slices.SortFunc(pairs, cmpGroupPair)
	order := make([]int32, len(pairs))
	for i, p := range pairs {
		order[i] = p.idx
	}
	return order
}

// TestMatchIntoMatchesReference holds LocalityFirst.MatchInto and
// MatchIntoOrdered to the three-sort reference bit for bit: every swarm
// size from 1 to 400, every placement shape, unbounded, zero, paper and
// binding budgets, with one Allocation recycled across calls as the
// engines do.
func TestMatchIntoMatchesReference(t *testing.T) {
	var got, gotOrdered Allocation
	for _, shape := range diffShapes {
		rng := rand.New(rand.NewSource(int64(len(shape.name))))
		for n := 1; n <= 400; n++ {
			peers := make([]Peer, n)
			demands := make([]float64, n)
			caps := make([]float64, n)
			var sumCaps float64
			for i := range peers {
				e, pop := shape.place(rng)
				peers[i] = Peer{User: uint32(i), Exchange: e, PoP: pop}
				if rng.Intn(8) > 0 {
					demands[i] = rng.Float64() * 5e8
				}
				if rng.Intn(8) > 0 {
					caps[i] = rng.Float64() * 4e8
				}
				sumCaps += caps[i]
			}
			for _, budget := range []float64{-1, 0, sumCaps * float64(n-1) / float64(n), sumCaps / 4} {
				var want Allocation
				if err := refLocalityMatchInto(&want, peers, demands, caps, budget); err != nil {
					t.Fatal(err)
				}
				if err := (LocalityFirst{}).MatchInto(&got, peers, demands, caps, budget); err != nil {
					t.Fatal(err)
				}
				allocationsEqual(t, fmt.Sprintf("%s n=%d budget=%g", shape.name, n, budget), &got, want)
				if err := (LocalityFirst{}).MatchIntoOrdered(&gotOrdered, peers, refExchangeOrder(peers), demands, caps, budget); err != nil {
					t.Fatal(err)
				}
				allocationsEqual(t, fmt.Sprintf("ordered %s n=%d budget=%g", shape.name, n, budget), &gotOrdered, want)
			}
		}
	}
}

// TestSortPairsMatchesComparator pins sortPairs to the comparator sort
// on both of its paths: keys that pack, and keys with a negative or
// too-wide group field or an index past the index width.
func TestSortPairsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys []uint64
	// field draws a group key from the two ends of the packed width,
	// few enough values that runs of equal keys form; with fallback set
	// it is sometimes one the packed sort cannot hold.
	field := func(fallback bool) int64 {
		if fallback && rng.Intn(4) == 0 {
			return []int64{-1, keyGroupMax + 1, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
		}
		if rng.Intn(2) == 0 {
			return int64(rng.Intn(4))
		}
		return keyGroupMax - int64(rng.Intn(4))
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		fallback := trial%2 == 1
		pairs := make([]groupPair, n)
		for i, idx := range rng.Perm(n) {
			pairs[i] = groupPair{k1: field(fallback), k2: field(fallback), idx: int32(idx)}
			if fallback && rng.Intn(8) == 0 {
				pairs[i].idx += keyIdxMax + 1 // still unique, and past the index width
			}
		}
		want := slices.Clone(pairs)
		slices.SortFunc(want, cmpGroupPair)
		sortPairs(pairs, &keys)
		if !slices.Equal(pairs, want) {
			t.Fatalf("trial %d: sortPairs = %v, want %v", trial, pairs, want)
		}
	}
}
