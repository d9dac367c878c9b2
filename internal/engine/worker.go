package engine

import (
	"fmt"
	"slices"
	"time"

	"consumelocal/internal/matching"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// member is one live swarm member: a real session or a post-playback
// seeding appendix. Member records exist only while the member is active
// or pending — their slots are recycled through a free list as soon as
// the tracker settles the member's end event, which is what keeps the
// engine out-of-core.
//
// The matching and booking inputs that are constant for the member's
// lifetime — topology endpoint, upload rate, demand rate (zero for
// seeders), user ledger — are resolved once at admission instead of once
// per activity interval, so interval settlement multiplies cached rates
// by the interval length and makes no map lookup.
type member struct {
	s         trace.Session
	peer      matching.Peer
	upBps     float64
	demandBps float64
	ledger    *sim.UserStats // nil without user tracking
}

// swarmState is one swarm's incremental state on its owning worker. It
// implements swarm.Sink (interval emission, member release) directly,
// so the settlement hot path runs through method dispatch with no
// per-swarm closures.
type swarmState struct {
	w       *worker
	key     swarm.Key
	tracker swarm.Tracker
	// members holds live member sessions by tracker index; free recycles
	// released slots, keeping the slice bounded by the swarm's peak
	// concurrency rather than its total session count. Slot reuse does
	// not perturb settlement order: the tracker orders active sets by
	// schedule order, not by index value.
	members []member
	free    []int32
	// byExchange holds the live member slots, active or scheduled, in
	// (exchange, schedule order) when the worker keeps orders: the order
	// matching's first pass groups peers in, kept across intervals
	// instead of sorted at each.
	byExchange []int32
	// activePos is the state's index in the worker's non-idle list, or
	// -1 while the swarm is idle (no active members, no pending events).
	activePos int
	// sessions and durSum accumulate the original (pre-quantization,
	// non-seeding) membership for the batch-identical capacity figure.
	sessions int
	durSum   float64
	tally    sim.Tally
}

// Emit settles one completed activity interval (swarm.Sink).
func (st *swarmState) Emit(iv swarm.Interval) { st.w.settle(st, iv) }

// Closed releases a settled member's slot (swarm.Sink).
func (st *swarmState) Closed(index int) {
	if st.w.keepsOrder {
		i := slices.Index(st.byExchange, int32(index))
		st.byExchange = append(st.byExchange[:i], st.byExchange[i+1:]...)
	}
	st.free = append(st.free, int32(index))
	st.w.active--
}

// alloc places a member into a recycled or fresh slot and returns its
// tracker index.
func (st *swarmState) alloc(m member) int {
	if n := len(st.free); n > 0 {
		idx := int(st.free[n-1])
		st.free = st.free[:n-1]
		st.members[idx] = m
		return idx
	}
	st.members = append(st.members, m)
	return len(st.members) - 1
}

// schedule adds a member to the tracker over its session and, when the
// worker keeps orders, to byExchange. It is the latest member in
// schedule order, so it goes after every member of its exchange: at the
// first position whose exchange is above its own.
func (st *swarmState) schedule(idx int) {
	m := &st.members[idx]
	st.tracker.Schedule(m.s.StartSec, m.s.EndSec(), idx)
	st.w.active++
	if !st.w.keepsOrder {
		return
	}
	o := st.byExchange
	lo, hi := 0, len(o)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.members[o[mid]].peer.Exchange <= m.peer.Exchange {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	o = append(o, 0)
	copy(o[lo+1:], o[lo:])
	o[lo] = int32(idx)
	st.byExchange = o
}

// worker owns one shard of the swarm key space. It processes its input
// messages strictly in order, so per-swarm settlement is a deterministic
// replay of the batch simulator's sweep.
type worker struct {
	id      int
	cfg     sim.Config
	horizon int64
	// states indexes swarms by key; ordered preserves first-arrival
	// order for the final report. activeList holds only non-idle swarms
	// — the ones a window mark actually needs to settle — so long traces
	// with many dead swarms don't pay O(total swarms) per window.
	states     map[swarm.Key]*swarmState
	ordered    []*swarmState
	activeList []*swarmState

	delta  sim.Tally
	booker sim.Booker
	active int
	err    error
	// keepsOrder is set when the policy is LocalityFirst itself: swarms
	// then keep byExchange and settle matches through MatchIntoOrdered.
	// Any other policy, a wrapped LocalityFirst included, gets MatchInto.
	keepsOrder bool
	// stats, when non-nil, receives settle time: the Advance each
	// arriving session makes plus every window mark. settling holds the
	// session-path share until the next mark publishes it, so the shared
	// counter sees one atomic add per mark, not one per session.
	stats    *obs.ReplayMetrics
	settling time.Duration

	// scratch buffers reused across intervals, as in sim.Run.
	peers    []matching.Peer
	demands  []float64
	caps     []float64
	accounts []sim.Account
	order    []int32 // the interval's slots in (exchange, slot) order
	slotOf   []int32 // per member slot: its slot in the interval, if active
	// alloc is the worker-owned matching result, recycled through
	// Policy.MatchInto each interval.
	alloc matching.Allocation
}

func newWorker(id int, cfg Config, meta trace.Meta) *worker {
	w := &worker{
		id:      id,
		cfg:     cfg.Sim,
		horizon: meta.HorizonSec,
		states:  make(map[swarm.Key]*swarmState),
		booker:  sim.Booker{Days: make([][]sim.Tally, meta.Days())},
		stats:   cfg.Stats,
	}
	_, w.keepsOrder = cfg.Sim.Policy.(matching.LocalityFirst)
	for d := range w.booker.Days {
		w.booker.Days[d] = make([]sim.Tally, meta.NumISPs)
	}
	if cfg.Sim.TrackUsers {
		w.booker.Users = make(map[uint32]*sim.UserStats)
	}
	return w
}

func (w *worker) run(in <-chan wmsg, acks chan<- ack, reports chan<- report) {
	for msg := range in {
		if !msg.mark {
			for i := range msg.batch {
				w.session(&msg.batch[i])
			}
			putBatch(msg.batch)
			continue
		}
		if w.stats != nil {
			t0 := time.Now()
			w.mark(msg.until, msg.final)
			w.stats.SettleSeconds.Add((w.settling + time.Since(t0)).Seconds())
			w.settling = 0
		} else {
			w.mark(msg.until, msg.final)
		}
		acks <- ack{delta: w.delta, active: w.active, swarms: len(w.ordered), err: w.err}
		w.delta = sim.Tally{}
		if msg.final {
			reports <- w.report()
		}
	}
}

// session schedules one arriving session (and its optional seeding
// appendix) on the owning swarm, settling the swarm's activity up to the
// session's start first so earlier intervals close before the new member
// opens.
func (w *worker) session(it *item) {
	st := w.states[it.key]
	if st == nil {
		st = &swarmState{w: w, key: it.key, activePos: -1}
		w.states[it.key] = st
		w.ordered = append(w.ordered, st)
	}
	if st.activePos < 0 {
		st.activePos = len(w.activeList)
		w.activeList = append(w.activeList, st)
	}

	s := it.sess
	if w.stats != nil {
		t0 := time.Now()
		st.tracker.Advance(s.StartSec, st)
		w.settling += time.Since(t0)
	} else {
		st.tracker.Advance(s.StartSec, st)
	}

	m := member{
		s:         s,
		peer:      w.cfg.PeerEndpoint(s, st.key),
		upBps:     w.cfg.UploadBpsOf(s),
		demandBps: s.Bitrate.BitsPerSecond(),
		ledger:    w.booker.Ledger(s.UserID),
	}
	st.schedule(st.alloc(m))
	st.sessions++
	st.durSum += float64(it.origDur)

	// Post-playback seeding appendix, mirroring the batch simulator's
	// augment step: the member's upload capacity stays available for
	// SeedRetentionSec after playback while it demands nothing.
	if retention := w.cfg.SeedRetentionSec; retention > 0 {
		seeder := m
		seeder.s.StartSec = s.EndSec()
		if seeder.s.StartSec+retention > w.horizon {
			retention = w.horizon - seeder.s.StartSec
		}
		if retention > 0 {
			seeder.s.DurationSec = int32(retention)
			seeder.demandBps = 0
			st.schedule(st.alloc(seeder))
		}
	}
}

// mark settles every non-idle swarm's activity up to a window boundary
// (or fully, on the final mark), in activation order for determinism.
// Swarms that drain to idle leave the active list until their next
// session arrives.
func (w *worker) mark(until int64, final bool) {
	live := w.activeList[:0]
	for _, st := range w.activeList {
		if final {
			st.tracker.Finish(st)
		} else {
			st.tracker.Advance(until, st)
		}
		if st.tracker.Idle() {
			st.activePos = -1
			continue
		}
		st.activePos = len(live)
		live = append(live, st)
	}
	// Clear the dropped tail so idle states aren't pinned by the backing
	// array.
	for i := len(live); i < len(w.activeList); i++ {
		w.activeList[i] = nil
	}
	w.activeList = live
}

// settle matches one completed activity interval and books the outcome —
// the streaming twin of sim.Run's runInterval, performing the identical
// sequence of floating-point operations so per-swarm tallies match
// sim.Run bit for bit.
//
//consumelocal:hotpath
//consumelocal:borrowed iv
func (w *worker) settle(st *swarmState, iv swarm.Interval) {
	if w.err != nil {
		return
	}
	n := len(iv.Active)
	dur := iv.Seconds()
	w.resize(n)

	var sumCaps float64
	for slot, idx := range iv.Active {
		m := &st.members[idx]
		w.peers[slot] = m.peer
		w.accounts[slot] = sim.Account{ISP: int(m.s.ISP), Ledger: m.ledger}
		w.demands[slot] = m.demandBps * dur
		cap := m.upBps * dur
		w.caps[slot] = cap
		sumCaps += cap
	}
	budget := w.cfg.PeerBudget(sumCaps, n)

	var err error
	// Matching returns before grouping below two peers or at a zero
	// budget, so those calls need no order.
	if w.keepsOrder && n >= 2 && budget != 0 {
		err = matching.LocalityFirst{}.MatchIntoOrdered(&w.alloc, w.peers, w.activeOrder(st, iv.Active), w.demands, w.caps, budget)
	} else {
		err = w.cfg.Policy.MatchInto(&w.alloc, w.peers, w.demands, w.caps, budget)
	}
	if err != nil {
		//consumelocal:ignore hotalloc cold error exit: formatting happens once, on the failure that aborts the run
		w.err = fmt.Errorf("engine: match swarm %+v interval [%d,%d): %w", st.key, iv.From, iv.To, err)
		return
	}

	ivTally := w.booker.BookInterval(iv, &w.alloc, w.demands, w.accounts)
	st.tally.Add(ivTally)
	w.delta.Add(ivTally)
}

// activeOrder returns the interval's slots in (exchange, slot) order:
// the swarm's kept order restricted to the members active in the
// interval. active lists them in schedule order, so slot order within an
// exchange is schedule order. slotOf needs no reset between intervals:
// an entry is current only if active points back at the member.
//
//consumelocal:hotpath
//consumelocal:borrowed active
func (w *worker) activeOrder(st *swarmState, active []int) []int32 {
	if len(w.slotOf) < len(st.members) {
		w.slotOf = make([]int32, len(st.members), 2*len(st.members))
	}
	for slot, idx := range active {
		w.slotOf[idx] = int32(slot)
	}
	k := 0
	for _, idx := range st.byExchange {
		if s := w.slotOf[idx]; int(s) < len(active) && active[s] == int(idx) {
			w.order[k] = s
			k++
		}
	}
	return w.order[:k]
}

// report packages the worker's shard outcome, with per-swarm statistics
// in first-arrival order; the coordinator re-sorts the union by key.
func (w *worker) report() report {
	stats := make([]sim.SwarmStats, 0, len(w.ordered))
	for _, st := range w.ordered {
		capacity := 0.0
		if w.horizon > 0 {
			capacity = st.durSum / float64(w.horizon)
		}
		stats = append(stats, sim.SwarmStats{
			Key:      st.key,
			Capacity: capacity,
			Sessions: st.sessions,
			Tally:    st.tally,
		})
	}
	return report{worker: w.id, stats: stats, days: w.booker.Days, users: w.booker.Users, err: w.err}
}

// resize grows the scratch buffers to hold n entries, at least doubling
// their capacity so a swarm growing one member at a time does not
// reallocate them at every new size.
func (w *worker) resize(n int) {
	if cap(w.peers) < n {
		c := max(n, 2*cap(w.peers))
		w.peers = make([]matching.Peer, n, c)
		w.demands = make([]float64, n, c)
		w.caps = make([]float64, n, c)
		w.accounts = make([]sim.Account, n, c)
		w.order = make([]int32, n, c)
	}
	w.peers = w.peers[:n]
	w.demands = w.demands[:n]
	w.caps = w.caps[:n]
	w.accounts = w.accounts[:n]
	w.order = w.order[:n]
}
