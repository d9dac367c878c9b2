// Package matching implements peer-matching policies for one swarm
// activity interval: given the set of concurrently active peers, their
// download demand and upload capacity, decide how many bits flow between
// peers and — crucially for the energy model — at which layer of the ISP
// metropolitan tree each peer-to-peer bit travels.
//
// Two policies are provided:
//
//   - LocalityFirst: the paper's managed-swarm policy. Demand is matched
//     against capacity as locally as possible: first within exchange
//     points, then across exchanges within a PoP, finally across PoPs
//     through the core. This mirrors a central swarm manager (AntFarm,
//     Akamai NetSession) matching each user with the closest peers.
//   - Random: an ablation baseline that matches peers uniformly at
//     random, pricing bits at the layer distribution implied by random
//     pairings. The difference between the two policies isolates how much
//     of the energy saving comes from *consuming local* rather than from
//     offloading alone.
//
// The paper's analytical cap on per-window peer traffic, (L−1)·q·Δτ
// (Eq. 2: one peer's worth of upload capacity is effectively spent
// fetching novel chunks from the server), is enforced through the budget
// argument. Trimming removes the least-local traffic first, preserving
// the locality preference under the cap.
package matching

import (
	"errors"
	"math"

	"consumelocal/internal/energy"
)

// Peer is one active swarm member's matching endpoint.
type Peer struct {
	// User is the peer's user ID (for per-user accounting).
	User uint32
	// Exchange is the exchange point the peer attaches to.
	Exchange int
	// PoP is the point of presence aggregating the peer's exchange.
	PoP int
}

// Allocation is the outcome of matching one activity interval.
type Allocation struct {
	// LayerBits holds the peer-to-peer traffic per topology layer,
	// indexed by energy.Layer.Index().
	LayerBits [energy.NumLayers]float64
	// UploadedBits is each peer's contribution to the peer traffic,
	// parallel to the peers slice passed to Match.
	UploadedBits []float64
	// PeerReceivedBits is the share of each peer's demand served from
	// peers, parallel to the peers slice.
	PeerReceivedBits []float64
	// ServerBits is the demand remainder served by CDN servers.
	ServerBits float64
}

// PeerBits returns the total traffic served from peers across all layers.
func (a Allocation) PeerBits() float64 {
	var sum float64
	for _, b := range a.LayerBits {
		sum += b
	}
	return sum
}

// Policy matches demand to upload capacity within one activity interval.
//
// peers, demands and caps are parallel: demands[i] is the number of bits
// peer i must download during the interval, caps[i] the bits it can
// upload. budget caps the total peer-to-peer traffic (the paper's
// (L−1)·q·Δτ bound); a negative budget means unbounded.
type Policy interface {
	// Match computes an allocation. Implementations must conserve
	// traffic: sum(PeerReceivedBits) + ServerBits == sum(demands), and
	// sum(UploadedBits) == sum(LayerBits) == sum(PeerReceivedBits).
	Match(peers []Peer, demands, caps []float64, budget float64) (Allocation, error)
	// MatchInto is Match writing its result into a caller-owned
	// Allocation, reusing its per-peer vectors when they have capacity.
	// Matching runs once per activity interval — the hottest call in
	// every engine — so recycling one Allocation per engine (or per
	// worker) removes the last per-interval heap allocation from the
	// replay hot path. On error the Allocation's contents are
	// unspecified. The caller owns the result until its next MatchInto
	// call with the same Allocation; implementations must not retain it.
	MatchInto(a *Allocation, peers []Peer, demands, caps []float64, budget float64) error
	// Name identifies the policy in reports.
	Name() string
}

// errMismatchedInputs is returned when the parallel slices disagree.
var errMismatchedInputs = errors.New("matching: peers, demands and caps must have equal length")

// validate checks the common preconditions and returns the total demand.
func validate(peers []Peer, demands, caps []float64) (totalDemand float64, err error) {
	if len(peers) != len(demands) || len(peers) != len(caps) {
		return 0, errMismatchedInputs
	}
	for i := range demands {
		if !nonNegative(demands[i]) || !nonNegative(caps[i]) {
			return 0, errors.New("matching: demands and capacities must be finite and non-negative")
		}
		totalDemand += demands[i]
	}
	return totalDemand, nil
}

// nonNegative reports whether x is a finite non-negative number. NaN
// fails both comparisons. A NaN demand would keep the greedy from ever
// stopping, and an infinite capacity turns residuals into NaN (∞·0).
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// reset prepares a as the no-sharing allocation over n peers: zeroed
// layer and per-peer vectors, the whole demand on the server. The
// per-peer vectors are reused when they have capacity — the whole point
// of the MatchInto path — and otherwise grown as one shared backing
// allocation, so the legacy Match path still escapes a single slice per
// interval rather than two. A recycled Allocation at least doubles its
// capacity on growth, so a swarm gaining peers one interval at a time
// does not reallocate at every new size.
func (a *Allocation) reset(n int, totalDemand float64) {
	a.LayerBits = [energy.NumLayers]float64{}
	a.ServerBits = totalDemand
	if cap(a.UploadedBits) < n || cap(a.PeerReceivedBits) < n {
		c := max(n, 2*cap(a.UploadedBits))
		buf := make([]float64, 2*c)
		a.UploadedBits = buf[:n:c]
		a.PeerReceivedBits = buf[c : c+n]
		return
	}
	up := a.UploadedBits[:n]
	down := a.PeerReceivedBits[:n]
	for i := range up {
		up[i] = 0
		down[i] = 0
	}
	a.UploadedBits, a.PeerReceivedBits = up, down
}

// trimOrder is the order in which layers lose traffic when the budget
// binds: least local first.
var trimOrder = [energy.NumLayers]energy.Layer{
	energy.LayerCore, energy.LayerPoP, energy.LayerExchange,
}

// applyBudget scales an allocation down to the budget, removing
// least-local traffic first and shrinking the per-peer vectors
// proportionally to the overall reduction.
func applyBudget(a *Allocation, budget float64) {
	if budget < 0 {
		return
	}
	total := a.PeerBits()
	if total <= budget {
		return
	}
	excess := total - budget
	for _, layer := range trimOrder {
		idx := layer.Index()
		cut := a.LayerBits[idx]
		if cut > excess {
			cut = excess
		}
		a.LayerBits[idx] -= cut
		excess -= cut
		if excess <= 0 {
			break
		}
	}
	kept := a.PeerBits()
	scale := 0.0
	if total > 0 {
		scale = kept / total
	}
	for i := range a.UploadedBits {
		moved := a.PeerReceivedBits[i] * (1 - scale)
		a.UploadedBits[i] *= scale
		a.PeerReceivedBits[i] -= moved
		a.ServerBits += moved
	}
}
