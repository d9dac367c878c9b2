// Package carbon implements the carbon credit transfer analysis of the
// paper's Section V: the CDN's energy savings from peer-assisted delivery
// are transferred to the uploading users as carbon credits, and each
// user's net carbon balance is evaluated.
//
// A user's own footprint is l·γm per bit for everything it downloads plus
// everything it uploads; its credit is PUE·γs per bit it uploads (the
// server energy its uploads displaced). The normalised net balance is the
// per-user CCT of Eq. 13: −1 for a user who never uploads, positive for a
// "carbon positive" user whose credits exceed its own streaming footprint.
package carbon

import (
	"sort"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
)

// UserBalance is one user's carbon accounting under one energy model.
type UserBalance struct {
	// User is the user ID.
	User uint32
	// Energy is the priced ledger.
	Energy sim.UserEnergy
	// CCT is the normalised net balance (Eq. 13 at user granularity).
	CCT float64
}

// Balances prices every user ledger of a simulation result under the
// given parameters, returning balances sorted by user ID.
func Balances(users map[uint32]*sim.UserStats, params energy.Params) []UserBalance {
	out := make([]UserBalance, 0, len(users))
	for id, stats := range users {
		ue := sim.PriceUser(*stats, params)
		out = append(out, UserBalance{User: id, Energy: ue, CCT: ue.NetNormalized()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// CCTValues extracts the per-user CCT values from balances.
func CCTValues(balances []UserBalance) []float64 {
	out := make([]float64, len(balances))
	for i, b := range balances {
		out[i] = b.CCT
	}
	return out
}

// Distribution summarises the per-user CCT distribution (the data behind
// Fig. 6).
type Distribution struct {
	// Model names the energy parameter set.
	Model string
	// Users is the number of users in the distribution.
	Users int
	// CarbonPositive is the fraction of users with CCT > 0.
	CarbonPositive float64
	// CarbonNeutralOrBetter is the fraction with CCT >= 0.
	CarbonNeutralOrBetter float64
	// Median is the median CCT.
	Median float64
	// CDF is the empirical CDF of per-user CCT.
	CDF []stats.Point
}

// Distribute computes the CCT distribution of a simulation result under
// the given parameters.
func Distribute(users map[uint32]*sim.UserStats, params energy.Params) Distribution {
	balances := Balances(users, params)
	values := CCTValues(balances)

	d := Distribution{
		Model: params.Name,
		Users: len(values),
		CDF:   stats.CDF(values),
	}
	if len(values) == 0 {
		return d
	}
	d.CarbonPositive = stats.FractionAbove(values, 0)
	d.CarbonNeutralOrBetter = stats.FractionAtLeast(values, 0)
	median, err := stats.Median(values)
	if err == nil {
		d.Median = median
	}
	return d
}

// SystemTransfer summarises the aggregate credit flow: total credits the
// CDN hands out versus the users' collective footprint.
type SystemTransfer struct {
	// Model names the energy parameter set.
	Model string
	// CreditJoules is the total CDN-side savings transferred.
	CreditJoules float64
	// UserFootprintJoules is the users' collective premises energy.
	UserFootprintJoules float64
	// NetNormalized is the collective CCT (credit − footprint)/footprint.
	NetNormalized float64
}

// Transfer aggregates the credit flow across all users. It sums in
// user-ID order, so the float totals do not depend on map iteration
// order.
func Transfer(users map[uint32]*sim.UserStats, params energy.Params) SystemTransfer {
	st := SystemTransfer{Model: params.Name}
	for _, b := range Balances(users, params) {
		st.CreditJoules += b.Energy.CreditJoules
		st.UserFootprintJoules += b.Energy.ConsumptionJoules
	}
	if st.UserFootprintJoules > 0 {
		st.NetNormalized = (st.CreditJoules - st.UserFootprintJoules) / st.UserFootprintJoules
	} else {
		st.NetNormalized = -1
	}
	return st
}
