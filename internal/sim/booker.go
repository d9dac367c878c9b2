package sim

import (
	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
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
}

// SessionSource resolves a swept member index to its session. Both
// execution modes implement it without closures: the batch simulator
// over the swarm's session slice, the streaming engine over a worker's
// live member table.
type SessionSource interface {
	SessionAt(idx int) trace.Session
}

// SessionSlice adapts a plain session list into a SessionSource: member
// index i is sessions[i], the batch sweep's indexing. Convert through a
// pointer (or reuse one SliceSource) on hot paths: boxing the slice
// header itself into the interface heap-allocates per conversion.
type SessionSlice []trace.Session

// SessionAt returns the idx-th session.
func (s SessionSlice) SessionAt(idx int) trace.Session { return s[idx] }

// SliceSource is a re-pointable SessionSource over a session list. The
// reference simulator holds one and repoints it at each swarm's sessions, so
// booking an interval converts a pointer into the interface — one word,
// no per-interval boxing allocation.
type SliceSource struct {
	Sessions []trace.Session
}

// SessionAt returns the idx-th session.
func (s *SliceSource) SessionAt(idx int) trace.Session { return s.Sessions[idx] }

// BookInterval books one matched activity interval: it builds the
// interval tally from the allocation, attributes each downloader's share
// to the day grid (peer bits split across layers proportionally to the
// interval's overall layer mix) and to its user ledger, and returns the
// interval tally for the caller to accumulate into swarm and run totals.
// demands is parallel to iv.Active; sessions resolves a member index to
// its session. The allocation is read-only and only for the duration of
// the call, so both engines can recycle one Allocation per interval.
func (b *Booker) BookInterval(iv swarm.Interval, alloc *matching.Allocation, demands []float64, sessions SessionSource) Tally {
	var ivTally Tally
	ivTally.ServerBits = alloc.ServerBits
	ivTally.LayerBits = alloc.LayerBits
	ivTally.TotalBits = alloc.ServerBits
	for _, bits := range alloc.LayerBits {
		ivTally.TotalBits += bits
	}

	peerTotal := ivTally.PeerBits()
	for slot, idx := range iv.Active {
		s := sessions.SessionAt(idx)
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
		b.bookDays(iv, int(s.ISP), perUser)

		if b.Users != nil {
			u := b.Users[s.UserID]
			if u == nil {
				u = &UserStats{}
				b.Users[s.UserID] = u
			}
			u.DownloadedBits += demand
			u.FromPeersBits += received
			u.UploadedBits += alloc.UploadedBits[slot]
		}
	}
	return ivTally
}

// bookDays splits a tally across the days an interval overlaps,
// proportionally to the overlap. Days beyond the grid (session tails
// past the trace horizon) are dropped.
func (b *Booker) bookDays(iv swarm.Interval, isp int, t Tally) {
	const daySec = 24 * 3600
	total := iv.Seconds()
	if total <= 0 {
		return
	}
	for day := int(iv.From / daySec); day <= int((iv.To-1)/daySec); day++ {
		if day < 0 || day >= len(b.Days) {
			continue
		}
		dayStart := int64(day) * daySec
		dayEnd := dayStart + daySec
		overlap := minInt64(iv.To, dayEnd) - maxInt64(iv.From, dayStart)
		if overlap <= 0 {
			continue
		}
		frac := float64(overlap) / total
		scaled := Tally{
			TotalBits:  t.TotalBits * frac,
			ServerBits: t.ServerBits * frac,
		}
		for l := range t.LayerBits {
			scaled.LayerBits[l] = t.LayerBits[l] * frac
		}
		b.Days[day][isp].Add(scaled)
	}
}
