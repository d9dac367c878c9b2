package swarm

import (
	"math"
	"unsafe"
)

// Sink consumes a Tracker's settled output: completed activity intervals
// and member-end notifications. It replaces the per-callback closures of
// the original Tracker API so hot-path settlement runs through direct
// method dispatch with no per-swarm closure state.
type Sink interface {
	// Emit receives one completed activity interval. The Interval's
	// Active slice is owned by the tracker and reused across emissions:
	// it is valid only until Emit returns and must be copied if retained.
	//
	//consumelocal:borrowed iv
	Emit(iv Interval)
	// Closed is invoked for every settled member end after the last
	// interval containing that member was emitted — the hook the
	// streaming engine uses to release per-member state.
	Closed(index int)
}

// Tracker maintains one swarm's activity incrementally: member
// open/close events are scheduled as sessions arrive, and completed
// activity intervals are settled on demand as the event-time watermark
// advances. Fed the same membership, a Tracker reproduces
// Sweeper.Sweep exactly — the same interval boundaries, the same active
// sets in the same order — without ever holding the swarm's full
// session list. It is the
// incremental core of the streaming engine (internal/engine), where whole
// traces are too large to group up front.
//
// The contract mirrors Sweeper.Sweep's event ordering: at any instant,
// member ends settle before member starts, so back-to-back sessions
// never appear concurrent. Emitted Active sets list members in
// Schedule-call order — identical to the Sweeper's index order when
// members are scheduled in session order, but independent of the caller's index values, so the
// engine can reuse member indices through a free list without perturbing
// the batch simulator's floating-point operation sequence.
//
// Callers must advance the watermark monotonically and must Advance to a
// member's open time before scheduling it, so that earlier ends settle
// first.
//
// The implementation is allocation-free at steady state: events live in
// a typed min-heap (no container/heap interface boxing), the active set
// is an incrementally maintained slice sorted by schedule order, and
// emitted intervals borrow one reusable scratch buffer.
type Tracker struct {
	events  []trackerEvent // typed binary min-heap
	active  []activeMember // sorted ascending by seq (schedule order)
	scratch []int          // reusable Interval.Active backing buffer
	prevAt  int64
	seq     uint64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

// Schedule adds one member active over [from, to): an open event at from
// and a close event at to. index identifies the member in emitted Active
// sets and Closed callbacks; Active ordering follows Schedule-call order,
// so indices may be reused once Closed has released them.
func (t *Tracker) Schedule(from, to int64, index int) {
	seq := t.seq
	t.seq++
	t.push(trackerEvent{at: from, seq: seq, index: index, open: true})
	t.push(trackerEvent{at: to, seq: seq, index: index, open: false})
}

// Advance settles every event strictly before until, plus member-end
// events at exactly until (Sweep's ends-before-starts tie-break), and
// emits each completed interval to sink in time order. until must not
// decrease across calls.
//
//consumelocal:hotpath
func (t *Tracker) Advance(until int64, sink Sink) {
	for len(t.events) > 0 {
		head := t.events[0]
		if head.at > until || (head.at == until && head.open) {
			break
		}
		at := head.at
		if len(t.active) > 0 && at > t.prevAt {
			sink.Emit(Interval{From: t.prevAt, To: at, Active: t.activeIndices()})
		}
		// Apply every settleable event at this instant before moving on,
		// so the next emitted interval sees the fully updated active set.
		for len(t.events) > 0 {
			e := t.events[0]
			if e.at != at || (e.at == until && e.open) {
				break
			}
			t.pop()
			if e.open {
				t.insertActive(e.seq, e.index)
			} else {
				t.removeActive(e.seq)
				sink.Closed(e.index)
			}
		}
		t.prevAt = at
	}
}

// Finish settles everything still pending, closing out the swarm.
func (t *Tracker) Finish(sink Sink) {
	t.Advance(math.MaxInt64, sink)
}

// ActiveCount returns the number of currently active members.
func (t *Tracker) ActiveCount() int { return len(t.active) }

// Idle reports whether the tracker has neither active members nor
// pending events.
func (t *Tracker) Idle() bool { return len(t.active) == 0 && len(t.events) == 0 }

// Reset empties the tracker and keeps its buffers, so a reset tracker
// can serve another swarm without growing them again. It emits exactly
// what a fresh tracker would: with no member active, the watermark and
// schedule numbering it forgets decide no emission.
func (t *Tracker) Reset() {
	t.events = t.events[:0]
	t.active = t.active[:0]
	t.prevAt = 0
	t.seq = 0
}

// Footprint returns the bytes the tracker's buffers hold, used or not:
// what Reset keeps.
func (t *Tracker) Footprint() int {
	return cap(t.events)*int(unsafe.Sizeof(trackerEvent{})) +
		cap(t.active)*int(unsafe.Sizeof(activeMember{})) +
		cap(t.scratch)*int(unsafe.Sizeof(int(0)))
}

// activeIndices fills the scratch buffer with the active member indices
// in schedule order. The returned slice is reused by the next emission.
//
//consumelocal:borrowed return
func (t *Tracker) activeIndices() []int {
	if cap(t.scratch) < len(t.active) {
		t.scratch = make([]int, len(t.active), 2*len(t.active))
	}
	s := t.scratch[:len(t.active)]
	for i := range t.active {
		s[i] = t.active[i].index
	}
	return s
}

// insertActive adds a member to the active slice, keeping it sorted by
// seq. Opens usually settle in schedule order, so the common case is a
// plain append; out-of-order settlement (a seeding appendix scheduled
// early but opening late) binary-searches its slot.
func (t *Tracker) insertActive(seq uint64, index int) {
	a := t.active
	if n := len(a); n == 0 || a[n-1].seq < seq {
		t.active = append(a, activeMember{seq: seq, index: index})
		return
	}
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a = append(a, activeMember{})
	copy(a[lo+1:], a[lo:])
	a[lo] = activeMember{seq: seq, index: index}
	t.active = a
}

// removeActive deletes the member with the given seq, preserving order.
// A missing seq is a no-op, mirroring the map-delete semantics of the
// original implementation.
func (t *Tracker) removeActive(seq uint64) {
	a := t.active
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(a) || a[lo].seq != seq {
		return
	}
	copy(a[lo:], a[lo+1:])
	t.active = a[:len(a)-1]
}

// trackerEvent is one scheduled membership change.
type trackerEvent struct {
	at    int64
	seq   uint64
	index int
	open  bool
}

// before orders events by time, with ends before starts at the same
// instant — the same tie-break Sweep applies — and by schedule order
// within a tie, making settlement fully deterministic.
func (e trackerEvent) before(o trackerEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.open != o.open {
		return !e.open
	}
	return e.seq < o.seq
}

// activeMember is one entry of the sorted active slice.
type activeMember struct {
	seq   uint64
	index int
}

// push adds an event to the min-heap (manual sift-up: no container/heap,
// no interface boxing, no per-event allocation).
func (t *Tracker) push(e trackerEvent) {
	t.events = append(t.events, e)
	h := t.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the minimum event (manual sift-down).
func (t *Tracker) pop() trackerEvent {
	h := t.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	t.events = h[:n]
	h = t.events
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
