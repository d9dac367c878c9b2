package swarm

import (
	"slices"
)

// Sweeper computes swarm activity intervals from caller-owned scratch
// buffers, so a loop over thousands of swarms — the reference
// simulator's shape — reuses one set of buffers instead of allocating
// per swarm and per interval.
//
// Ownership: the slice returned by Sweep, each Interval's Active slice,
// and their shared backing arena are owned by the Sweeper and remain
// valid only until the next Sweep call on the same Sweeper. Callers that
// retain intervals past that point must copy them. The zero value is
// ready to use; a Sweeper must not be used from multiple goroutines
// concurrently.
type Sweeper struct {
	events    []sweepEvent
	intervals []Interval
	spans     []sweepSpan
	arena     []int // backing store for every Active slice of one sweep
	active    []int // current active set, ascending by index
}

// sweepEvent is one session boundary: a member opening or closing.
type sweepEvent struct {
	at    int64
	index int32
	open  bool
}

// sweepSpan records where one interval's active set lives in the arena;
// Active slices are fixed up only after the walk, because the arena may
// still be growing (and therefore moving) while intervals are found.
type sweepSpan struct {
	lo, hi int
}

// cmpSweepEvent orders events by time, closes before opens at the same
// instant — Sweep's tie-break, so back-to-back sessions never appear
// concurrent — and by member index within a tie for full determinism.
func cmpSweepEvent(a, b sweepEvent) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.open != b.open {
		if a.open {
			return 1
		}
		return -1
	}
	if a.index != b.index {
		if a.index < b.index {
			return -1
		}
		return 1
	}
	return 0
}

// Sweep produces the swarm's activity intervals in time order, reusing
// the Sweeper's buffers. Intervals with no active sessions are omitted:
// they contribute neither demand nor peer traffic. Each interval's
// Active set indexes into sw.Sessions in ascending order; see the type
// comment for the ownership rules.
//
//consumelocal:borrowed return
func (sp *Sweeper) Sweep(sw *Swarm) []Interval {
	events := sp.prepare(len(sw.Sessions))
	for i, s := range sw.Sessions {
		events = append(events,
			sweepEvent{at: s.StartSec, index: int32(i), open: true},
			sweepEvent{at: s.EndSec(), index: int32(i), open: false},
		)
	}
	sp.events = events
	return sp.run()
}

// prepare resets the scratch for a sweep over n sessions and returns the
// empty event buffer with enough capacity for all 2n boundaries.
func (sp *Sweeper) prepare(n int) []sweepEvent {
	if cap(sp.events) < 2*n {
		sp.events = make([]sweepEvent, 0, 2*n)
	}
	return sp.events[:0]
}

// run sorts the prepared events and walks them into intervals.
func (sp *Sweeper) run() []Interval {
	slices.SortFunc(sp.events, cmpSweepEvent)

	intervals := sp.intervals[:0]
	spans := sp.spans[:0]
	arena := sp.arena[:0]
	active := sp.active[:0]
	events := sp.events

	var prevAt int64
	for i := 0; i < len(events); {
		at := events[i].at
		if len(active) > 0 && at > prevAt {
			lo := len(arena)
			arena = append(arena, active...)
			intervals = append(intervals, Interval{From: prevAt, To: at})
			spans = append(spans, sweepSpan{lo: lo, hi: len(arena)})
		}
		// Apply every event at this instant before emitting the next
		// interval.
		for i < len(events) && events[i].at == at {
			if events[i].open {
				active = insertIndex(active, int(events[i].index))
			} else {
				active = removeIndex(active, int(events[i].index))
			}
			i++
		}
		prevAt = at
	}

	sp.intervals, sp.spans, sp.arena, sp.active = intervals, spans, arena, active
	// The arena has stopped moving; point every interval at its slice.
	for i := range intervals {
		span := spans[i]
		intervals[i].Active = arena[span.lo:span.hi:span.hi]
	}
	return intervals
}

// insertIndex adds idx to the ascending active set. Opens sorted by
// index arrive in order, so the common case is a plain append.
func insertIndex(active []int, idx int) []int {
	if n := len(active); n == 0 || active[n-1] < idx {
		return append(active, idx)
	}
	lo, hi := 0, len(active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if active[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if active[lo] == idx {
		// Already present: set semantics, as the original map insert.
		return active
	}
	active = append(active, 0)
	copy(active[lo+1:], active[lo:])
	active[lo] = idx
	return active
}

// removeIndex deletes idx from the ascending active set, preserving
// order. A missing idx is a no-op, mirroring the map-delete semantics of
// the original implementation (a zero-duration session's close sorts
// before its open).
func removeIndex(active []int, idx int) []int {
	lo, hi := 0, len(active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if active[mid] < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(active) || active[lo] != idx {
		return active
	}
	copy(active[lo:], active[lo+1:])
	return active[:len(active)-1]
}
