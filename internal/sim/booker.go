package sim

import (
	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
)

// Booker accumulates matched interval allocations into the result grids
// shared by the batch simulator and the streaming engine: the per-day /
// per-ISP tally grid and the per-user byte ledgers. Both execution modes
// book through this one implementation so their floating-point operation
// sequences cannot drift apart — the property the engine's bit-for-bit
// equivalence contract rests on.
type Booker struct {
	// Days is the [day][isp] tally grid.
	Days [][]Tally
	// Users maps user ID to its byte ledger; nil disables user tracking.
	Users map[uint32]*UserStats

	// fracs holds the booked interval's per-day overlap shares.
	fracs []float64
}

// Account is where one active member's share of an interval is booked:
// its day-grid column (the session's ISP) and its user ledger, nil when
// users are not tracked. Callers resolve it before booking, so booking
// makes no map lookup per member; the streaming engine resolves it once
// per session, at admission.
type Account struct {
	ISP    int
	Ledger *UserStats
}

// Ledger returns the user's byte ledger, creating it on first use, or
// nil when user tracking is off.
func (b *Booker) Ledger(user uint32) *UserStats {
	if b.Users == nil {
		return nil
	}
	u := b.Users[user]
	if u == nil {
		u = &UserStats{}
		b.Users[user] = u
	}
	return u
}

// BookInterval books one matched activity interval: it builds the
// interval tally from the allocation, attributes each downloader's share
// to the day grid (peer bits split across layers proportionally to the
// interval's overall layer mix) and to its user ledger, and returns the
// interval tally for the caller to accumulate into swarm and run totals.
// demands and accounts are parallel to iv.Active. The allocation is
// read-only and only for the duration of the call, so both engines can
// recycle one Allocation per interval.
//
//consumelocal:hotpath
func (b *Booker) BookInterval(iv swarm.Interval, alloc *matching.Allocation, demands []float64, accounts []Account) Tally {
	var ivTally Tally
	ivTally.ServerBits = alloc.ServerBits
	ivTally.LayerBits = alloc.LayerBits
	ivTally.TotalBits = alloc.ServerBits
	for _, bits := range alloc.LayerBits {
		ivTally.TotalBits += bits
	}

	firstDay, fracs := b.daySplit(iv)
	peerTotal := ivTally.PeerBits()
	for slot, acct := range accounts {
		demand := demands[slot]
		received := alloc.PeerReceivedBits[slot]
		server := demand - received
		if server < 0 {
			server = 0
		}

		var perUser Tally
		perUser.TotalBits = demand
		perUser.ServerBits = server
		if peerTotal > 0 {
			frac := received / peerTotal
			for l := range alloc.LayerBits {
				perUser.LayerBits[l] = alloc.LayerBits[l] * frac
			}
		}
		for k, frac := range fracs {
			scaled := Tally{
				TotalBits:  perUser.TotalBits * frac,
				ServerBits: perUser.ServerBits * frac,
			}
			for l := range perUser.LayerBits {
				scaled.LayerBits[l] = perUser.LayerBits[l] * frac
			}
			b.Days[firstDay+k][acct.ISP].Add(scaled)
		}

		if u := acct.Ledger; u != nil {
			u.DownloadedBits += demand
			u.FromPeersBits += received
			u.UploadedBits += alloc.UploadedBits[slot]
		}
	}
	return ivTally
}

// daySplit returns the first day an interval overlaps and the
// interval's share in each grid day from there on, proportional to the
// overlap. Swept intervals never start before zero, since sessions
// start at or after it. The loop is clamped to the grid: days beyond it
// (session tails past the trace horizon, up to ~68 years of them) are
// never visited. The shares live in the Booker's scratch until the next
// call.
//
//consumelocal:hotpath
func (b *Booker) daySplit(iv swarm.Interval) (firstDay int, fracs []float64) {
	const daySec = 24 * 3600
	fracs = b.fracs[:0]
	total := iv.Seconds()
	if total <= 0 {
		return 0, fracs
	}
	first := iv.From / daySec
	last := min((iv.To-1)/daySec, int64(len(b.Days))-1)
	for day := first; day <= last; day++ {
		dayStart := day * daySec
		overlap := min(iv.To, dayStart+daySec) - max(iv.From, dayStart)
		fracs = append(fracs, float64(overlap)/total)
	}
	b.fracs = fracs
	return int(first), fracs
}
