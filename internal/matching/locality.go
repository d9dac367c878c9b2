package matching

import (
	"errors"
	"slices"
	"sync"

	"consumelocal/internal/energy"
)

// LocalityFirst is the paper's managed-swarm matching policy: demand is
// satisfied from the closest available peers, layer by layer. The zero
// value is ready to use and safe for concurrent Match calls (per-call
// scratch state lives in an internal pool).
type LocalityFirst struct{}

var _ Policy = LocalityFirst{}

// Name implements Policy.
func (LocalityFirst) Name() string { return "locality-first" }

// groupPair is one peer in a grouping pass: sorted by (k1, k2, idx),
// groups are runs of equal k1 and subgroups runs of equal (k1, k2).
// Sorting replaces the map-bucket grouping of the original
// implementation: groups still come out in ascending key order with
// members in ascending index order, so the floating-point operation
// sequence — and therefore the simulator's bit-for-bit results — is
// unchanged, while the per-interval map, bucket and key-slice
// allocations are gone.
type groupPair struct {
	k1, k2 int64
	idx    int32
}

// cmpGroupPair orders pairs by (k1, k2, idx). sortPairs falls back to it
// for keys that do not fit a packed sort key.
func cmpGroupPair(a, b groupPair) int {
	if a.k1 != b.k1 {
		if a.k1 < b.k1 {
			return -1
		}
		return 1
	}
	if a.k2 != b.k2 {
		if a.k2 < b.k2 {
			return -1
		}
		return 1
	}
	if a.idx != b.idx {
		if a.idx < b.idx {
			return -1
		}
		return 1
	}
	return 0
}

// A packed sort key holds one groupPair in a uint64: k1 and k2 in
// keyGroupBits each, above keyIdxBits of idx, so integer order is
// (k1, k2, idx) order. Session exchanges are 16-bit and an ISP-spanning
// swarm on the London tree offsets them by at most 255×345, so the
// simulator's keys stay below 2^18; anything wider takes the comparator
// sort.
const (
	keyIdxBits   = 24
	keyGroupBits = 20
	keyIdxMax    = 1<<keyIdxBits - 1
	keyGroupMax  = 1<<keyGroupBits - 1
)

// sortPairs orders pairs by (k1, k2, idx) — the permutation
// slices.SortFunc(pairs, cmpGroupPair) yields, since idx is unique and
// the order therefore total. When every field fits its packed width it
// sorts one uint64 key per pair with slices.Sort, whose comparisons
// inline, and unpacks the keys back in order; a negative or oversized
// field takes the comparator sort. keys is the caller's pooled scratch.
//
//consumelocal:hotpath
func sortPairs(pairs []groupPair, keys *[]uint64) {
	ks := grown(keys, len(pairs))
	for i, p := range pairs {
		// Negative fields convert to huge unsigned values, so the upper
		// bounds reject them too.
		if uint64(p.k1) > keyGroupMax || uint64(p.k2) > keyGroupMax || uint64(p.idx) > keyIdxMax {
			slices.SortFunc(pairs, cmpGroupPair)
			return
		}
		ks[i] = uint64(p.k1)<<(keyGroupBits+keyIdxBits) | uint64(p.k2)<<keyIdxBits | uint64(p.idx)
	}
	slices.Sort(ks)
	for i, k := range ks {
		pairs[i] = groupPair{
			k1:  int64(k >> (keyGroupBits + keyIdxBits)),
			k2:  int64((k >> keyIdxBits) & keyGroupMax),
			idx: int32(k & keyIdxMax),
		}
	}
}

// lfScratch is the reusable per-Match working state. Matching runs once
// per activity interval — the single hottest call in both engines — so
// its temporaries are pooled rather than reallocated per interval.
type lfScratch struct {
	residD, residC []float64
	pairs          []groupPair // passes 1 and 3
	byPoP          []groupPair // pass 2
	keys           []uint64    // packed sort keys (sortPairs)
	popCount       []int32     // per PoP id: its run's next free slot in pass 2
	popRank        []int32     // per peer: its PoP's run number in pass 2
	popNext        []int32     // per PoP run: next free slot in pass 3
	starts         []int32     // subgroup boundaries of the current cross pass
	demand         []float64
	capacity       []float64
	served         []float64
	used           []float64
}

// floats returns a zeroed scratch slice of length n.
func floats(buf *[]float64, n int) []float64 {
	s := grown(buf, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// grown returns a scratch slice of length n with arbitrary contents,
// for callers that overwrite every element themselves. Capacity at
// least doubles on growth: a live swarm gains peers one interval at a
// time, and growing to the exact size reallocated at every new peak.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, max(n, 2*cap(*buf)))
	}
	return (*buf)[:n]
}

var lfPool = sync.Pool{New: func() any { return new(lfScratch) }}

// Match implements Policy, allocating a fresh result per call; the
// engines recycle one Allocation through MatchInto instead.
func (p LocalityFirst) Match(peers []Peer, demands, caps []float64, budget float64) (Allocation, error) {
	var a Allocation
	if err := p.MatchInto(&a, peers, demands, caps, budget); err != nil {
		return Allocation{}, err
	}
	return a, nil
}

// MatchInto implements Policy. The algorithm runs three passes:
//
//  1. Exchange pass: within every exchange point hosting at least two
//     peers, local demand is matched against local capacity.
//  2. PoP pass: per PoP, remaining demand is matched against remaining
//     capacity of *other* exchange points under the same PoP.
//  3. Core pass: remaining demand is matched across PoPs.
//
// Cross-group passes use a largest-remaining-first greedy that achieves
// the maximum feasible flow under the no-self-serving constraint. Finally
// the paper's (L−1)·q budget is applied, trimming least-local traffic
// first.
//
// MatchInto sorts the peers by (exchange, index) once; a caller that
// keeps them in that order across calls uses MatchIntoOrdered instead.
//
//consumelocal:hotpath
func (LocalityFirst) MatchInto(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) error {
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
	pairs := grown(&sc.pairs, n)
	for i, p := range peers {
		pairs[i] = groupPair{k1: int64(p.Exchange), idx: int32(i)}
	}
	sortPairs(pairs, &sc.keys)
	sc.match(alloc, peers, demands, caps, budget)
	return nil
}

// errBadOrder is returned when MatchIntoOrdered's order is not the
// peers' (exchange, index) order.
var errBadOrder = errors.New("matching: byExchange must list every peer index once, in (exchange, index) order")

// MatchIntoOrdered is MatchInto for a caller that keeps its peers'
// grouping order: byExchange lists every peer index once, sorted by
// (Exchange, index). It returns the allocation MatchInto returns, bit
// for bit, without sorting. The streaming engine keeps each swarm's
// members in this order across intervals, since consecutive intervals
// differ by a member or two.
//
//consumelocal:hotpath
func (LocalityFirst) MatchIntoOrdered(alloc *Allocation, peers []Peer, byExchange []int32, demands, caps []float64, budget float64) error {
	totalDemand, err := validate(peers, demands, caps)
	if err != nil {
		return err
	}
	n := len(peers)
	if len(byExchange) != n {
		return errBadOrder
	}
	alloc.reset(n, totalDemand)
	if n < 2 || budget == 0 {
		return nil
	}

	sc := lfPool.Get().(*lfScratch)
	defer lfPool.Put(sc)
	pairs := grown(&sc.pairs, n)
	for i, idx := range byExchange {
		if uint(idx) >= uint(n) {
			return errBadOrder
		}
		pairs[i] = groupPair{k1: int64(peers[idx].Exchange), idx: idx}
		// Strictly ascending keys are distinct, so n of them in range
		// are every index once.
		if i > 0 && cmpGroupPair(pairs[i-1], pairs[i]) >= 0 {
			return errBadOrder
		}
	}
	sc.match(alloc, peers, demands, caps, budget)
	return nil
}

// match runs the three passes on at least two peers, given sc.pairs
// holding them in (exchange, index) order.
//
//consumelocal:hotpath
func (sc *lfScratch) match(alloc *Allocation, peers []Peer, demands, caps []float64, budget float64) {
	n := len(peers)
	// Residual demand/capacity per peer, consumed pass by pass; the
	// copies overwrite every element, so no zeroing pass is needed.
	residD := grown(&sc.residD, n)
	residC := grown(&sc.residC, n)
	copy(residD, demands)
	copy(residC, caps)

	// Pass 1: within exchange points.
	pairs := sc.pairs[:n]
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

	// Pass 2: across exchanges within each PoP. In (PoP, exchange,
	// index) order PoPs are runs and their exchange subgroups sub-runs.
	// The runs ascend by PoP, so each peer's run number is its PoP's
	// rank, noted for pass 3.
	byPoP := sc.popOrder(peers, pairs)
	popRank := grown(&sc.popRank, n)
	popNext := sc.popNext[:0]
	for s := 0; s < n; {
		e := s + 1
		for e < n && byPoP[e].k1 == byPoP[s].k1 {
			e++
		}
		for _, m := range byPoP[s:e] {
			popRank[m.idx] = int32(len(popNext))
		}
		popNext = append(popNext, int32(s))
		flows := crossMatch(sc, byPoP[s:e], residD, residC)
		record(alloc, energy.LayerPoP, flows, byPoP[s:e], residD, residC, demands, caps)
		s = e
	}
	sc.popNext = popNext

	// Pass 3: across PoPs through the core, members grouped by PoP in
	// ascending index order. Pass 2 ranked the PoPs and counted their
	// runs, so one counting pass over the peers in index order places
	// each at its run's next free slot — the (PoP, index) order without a
	// sort.
	for i, p := range peers {
		r := popRank[i]
		pairs[popNext[r]] = groupPair{k1: int64(p.PoP), k2: int64(p.PoP), idx: int32(i)}
		popNext[r]++
	}
	flows := crossMatch(sc, pairs, residD, residC)
	record(alloc, energy.LayerCore, flows, pairs, residD, residC, demands, caps)

	applyBudget(alloc, budget)
}

// popOrder returns the peers in (PoP, exchange, index) order, given
// pairs holding them in (exchange, index) order. One stable counting
// pass on PoP keeps the (exchange, index) order inside each PoP, so it
// yields the permutation a sort would, also when an exchange sits under
// two PoPs. Counting walks one entry per PoP id up to the largest, so
// negative PoPs, and ids far above the peer count, take the sort.
//
//consumelocal:hotpath
func (sc *lfScratch) popOrder(peers []Peer, pairs []groupPair) []groupPair {
	n := len(peers)
	out := grown(&sc.byPoP, n)
	lo, hi := peers[0].PoP, peers[0].PoP
	for _, p := range peers[1:] {
		lo, hi = min(lo, p.PoP), max(hi, p.PoP)
	}
	if lo < 0 || hi >= 4*n+64 {
		for i, p := range peers {
			out[i] = groupPair{k1: int64(p.PoP), k2: int64(p.Exchange), idx: int32(i)}
		}
		sortPairs(out, &sc.keys)
		return out
	}
	next := grown(&sc.popCount, hi+1)
	clear(next)
	for _, p := range peers {
		next[p.PoP]++
	}
	var at int32
	for pop, c := range next {
		next[pop] = at
		at += c
	}
	for _, m := range pairs {
		pop := peers[m.idx].PoP
		out[next[pop]] = groupPair{k1: int64(pop), k2: m.k1, idx: m.idx}
		next[pop]++
	}
	return out
}

// matchWithin matches demand against capacity inside one group where every
// member can serve every other. With at least two members the feasible
// flow is min(total demand, total capacity): a cyclic assignment routes
// around self-serving. It mutates the residual vectors and returns the
// flow.
func matchWithin(members []groupPair, residDemand, residCap []float64) float64 {
	var sumD, sumU float64
	for _, m := range members {
		sumD += residDemand[m.idx]
		sumU += residCap[m.idx]
	}
	flow := sumD
	if sumU < flow {
		flow = sumU
	}
	if flow <= 0 {
		return 0
	}
	drainProportional(members, residDemand, sumD, flow)
	drainProportional(members, residCap, sumU, flow)
	return flow
}

// crossMatch matches residual demand of each subgroup (a run of equal k2
// within the sorted members) against residual capacity of the *other*
// subgroups, using a largest-remaining-first greedy that achieves the
// maximum total flow under the no-same-group constraint. It mutates the
// residual vectors and returns the total flow.
func crossMatch(sc *lfScratch, members []groupPair, residDemand, residCap []float64) float64 {
	// Subgroup boundaries: starts[g] is the first member of subgroup g.
	starts := sc.starts[:0]
	for i := range members {
		if i == 0 || members[i].k2 != members[i-1].k2 {
			starts = append(starts, int32(i))
		}
	}
	sc.starts = starts
	k := len(starts)
	if k < 2 {
		return 0
	}
	end := func(g int) int {
		if g+1 < k {
			return int(starts[g+1])
		}
		return len(members)
	}

	demand := floats(&sc.demand, k)
	capacity := floats(&sc.capacity, k)
	for g := 0; g < k; g++ {
		for _, m := range members[starts[g]:end(g)] {
			demand[g] += residDemand[m.idx]
			capacity[g] += residCap[m.idx]
		}
	}

	// served[g] / used[g] accumulate how much of group g's demand was
	// served and capacity consumed in this pass.
	served := floats(&sc.served, k)
	used := floats(&sc.used, k)
	var total float64
	const eps = 1e-9
	for {
		// One scan finds the largest demand gd and the largest and
		// second-largest capacities u1 and u2, each tie going to the
		// lowest index. gu, the largest capacity outside gd, is u1 unless
		// that is gd: while no residual is NaN, the picks of separate
		// scans over demand and over the other groups' capacity.
		gd, u1, u2 := 0, 0, -1
		for g := 1; g < k; g++ {
			if demand[g] > demand[gd] {
				gd = g
			}
			if c := capacity[g]; c > capacity[u1] {
				u1, u2 = g, u1
			} else if u2 < 0 || c > capacity[u2] {
				u2 = g
			}
		}
		if demand[gd] <= eps {
			break
		}
		gu := u1
		if gu == gd {
			gu = u2
		}
		if capacity[gu] <= eps {
			break
		}
		x := demand[gd]
		if capacity[gu] < x {
			x = capacity[gu]
		}
		demand[gd] -= x
		capacity[gu] -= x
		served[gd] += x
		used[gu] += x
		total += x
	}
	if total <= 0 {
		return 0
	}

	// Fold the per-group outcomes back into the per-peer residuals.
	for g := 0; g < k; g++ {
		group := members[starts[g]:end(g)]
		if served[g] > 0 {
			var sumD float64
			for _, m := range group {
				sumD += residDemand[m.idx]
			}
			drainProportional(group, residDemand, sumD, served[g])
		}
		if used[g] > 0 {
			var sumU float64
			for _, m := range group {
				sumU += residCap[m.idx]
			}
			drainProportional(group, residCap, sumU, used[g])
		}
	}
	return total
}

// drainProportional subtracts amount from the members' entries of vec,
// proportionally to their current values (which sum to sum).
func drainProportional(members []groupPair, vec []float64, sum, amount float64) {
	if sum <= 0 {
		return
	}
	scale := amount / sum
	if scale > 1 {
		scale = 1
	}
	for _, m := range members {
		vec[m.idx] -= vec[m.idx] * scale
		if vec[m.idx] < 0 {
			vec[m.idx] = 0
		}
	}
}

// record books flow at a layer and attributes it to the members' upload
// and peer-download tallies, truing each member up to its cumulative
// consumed capacity (caps[i] − residCap[i]) and met demand
// (demands[i] − residDemand[i]). The per-member updates are independent
// max-assignments, so member order does not affect the outcome.
func record(alloc *Allocation, layer energy.Layer, flow float64, members []groupPair,
	residDemand, residCap, demands, caps []float64) {
	if flow <= 0 {
		return
	}
	alloc.LayerBits[layer.Index()] += flow
	alloc.ServerBits -= flow

	for _, m := range members {
		i := m.idx
		if upSoFar := caps[i] - residCap[i]; upSoFar > alloc.UploadedBits[i] {
			alloc.UploadedBits[i] = upSoFar
		}
		if downSoFar := demands[i] - residDemand[i]; downSoFar > alloc.PeerReceivedBits[i] {
			alloc.PeerReceivedBits[i] = downSoFar
		}
	}
}
